"""End-to-end benchmark cells: generate data, base-train, expand, fine-tune.

The bundled benchmark builds clustered class embeddings (novel classes sit
inside base-class neighborhoods, the way real word embeddings behave), derives
a synthetic feature corpus from them, and runs the two-phase protocol for one
head configuration.  Every stochastic choice hangs off the cell seed, so two
heads run on the same seed see identical data and differ only in the head.

A cell splits into a base part (`train_base`), which does not depend on the
shot count, and a finishing part (`finish_cell`) that fine-tunes a copy of
the base head for one k.  `run_cell` keeps the latest base part and finishes
the next cell from it when that cell's `base_phase_key` matches: another k on
the same seed, or an ssp head followed by an srr head.  An srr head's relation
stage (dynamic, tt or heuristic) joins at fine-tuning, so its base phase is
the projection head's (`head.base_phase_config`).  `shot_sweep` runs its
cells seed by seed through `run_cell`, so each seed trains its base part once.
"""

import copy
from dataclasses import dataclass, fields

import numpy as np

from . import relation as rel
from .diffmath import l2_normalize_rows
from .embeddings import (NONNEG, NONNEG_INT, POSITIVE, POSITIVE_INT, UNIT, ClassRegistry,
                         compose_background_row)
from .evaluation import MetricsReport, SweepResult, SweepRow, evaluate
from .head import (
    Head,
    HeadConfig,
    HeadMode,
    attach_heuristic_graph,
    base_phase_config,
    build_head,
    expand_classes,
    switch_graph_mode,
)
from .records import FeatureSet
from .synthgen import SynthConfig, generate
from .training import (
    Episode,
    TrainConfig,
    base_train,
    finetune,
    finetune_config,
    sample_episode,
)

_STREAM_CLUSTER = 8
_STREAM_EMBED_NOISE = 9

# the bundled cell's fixed settings: class spread around the cluster centers,
# corruption of the embeddings heads see, generator noise as a fraction of the
# minimum prototype margin, fine-tune lr and the weight of the regression loss
CLUSTER_SPREAD = 0.35
EMBED_NOISE = 0.1
MARGIN_SCALE = 0.15
FINETUNE_LR = 0.005
REG_WEIGHT = 0.1


def noisy_view(we: np.ndarray, noise: float, seed: int) -> np.ndarray:
    """The embeddings a head actually sees: a corrupted copy of `we`.

    Real word vectors are imperfect proxies for the semantics that shape
    visual features; the benchmark models that by generating features from
    latent vectors while giving heads only this noisy, renormalized view.
    Attention over related classes can average the corruption back out,
    which is the capability the dynamic-graph head is meant to show.
    """
    if NONNEG.check(noise, "embedding noise") == 0:
        return we
    rng = np.random.default_rng([seed, _STREAM_EMBED_NOISE])
    return l2_normalize_rows(we + noise * rng.standard_normal(we.shape))


def clustered_embeddings(registry: ClassRegistry, dim: int, n_clusters: int,
                         spread: float, seed: int) -> np.ndarray:
    """Unit class embeddings grouped around shared cluster centers.

    Base and novel classes are interleaved across clusters, so each novel
    class has semantically close base classes, which is what the relation
    stage feeds on.
    """
    POSITIVE_INT.check(n_clusters, "n_clusters")
    NONNEG.check(spread, "spread")
    rng = np.random.default_rng([seed, _STREAM_CLUSTER])
    centers = l2_normalize_rows(rng.standard_normal((n_clusters, dim)))
    names = registry.base + registry.novel
    rows = np.empty((len(names), dim))
    for i in range(len(names)):
        center = centers[i % n_clusters]
        rows[i] = center + spread * rng.standard_normal(dim)
    return np.vstack([l2_normalize_rows(rows), compose_background_row(dim, seed)])


@dataclass
class PipelineConfig:
    mode: HeadMode = HeadMode.SRR
    graph_mode: rel.GraphMode | None = None  # None: the head's default
    n_base: int = 15
    n_novel: int = 5
    d_e: int = 24
    d_in: int = 64
    d: int = 32
    r: int = 8
    n_clusters: int = 5
    alpha: float = 0.9
    train_per_class: int = 30
    test_per_class: int = 25
    base_steps: int = 500
    base_lr: float = 0.02
    finetune_steps: int | None = None
    base_shots: int | None = 30
    batch_size: int = 16

    def __post_init__(self):
        counts = ("n_base", "n_novel", "d_e", "d_in", "d", "r", "n_clusters", "train_per_class",
                  "test_per_class", "base_steps", "batch_size")
        for name, bound in (("alpha", UNIT), ("base_lr", POSITIVE),
                            *((n, POSITIVE_INT) for n in counts)):
            bound.check(getattr(self, name), name)
        for name, bound in (("finetune_steps", POSITIVE_INT), ("base_shots", NONNEG_INT)):
            if getattr(self, name) is not None:  # None: the fine-tune default
                bound.check(getattr(self, name), name)
        if isinstance(self.mode, str):
            self.mode = HeadMode(self.mode)
        # drop a non-srr head's graph mode: perfbench/workloads.py passes "dynamic" for all
        graph = self.graph_mode if self.mode is HeadMode.SRR else None
        self.graph_mode = HeadConfig(mode=self.mode, graph_mode=graph).graph_mode

    def registry(self) -> ClassRegistry:
        return ClassRegistry.numbered(self.n_base, self.n_novel)


def bundled_benchmark(**overrides) -> PipelineConfig:
    """The stock 15-base / 5-novel configuration the acceptance runs use."""
    return PipelineConfig(**overrides)


@dataclass
class CellResult:
    head: Head
    report_before: MetricsReport
    report_after: MetricsReport
    episode: Episode

    @property
    def base_accuracy_before(self) -> float:
        return self.report_before.base_accuracy

    @property
    def base_accuracy(self) -> float:
        return self.report_after.base_accuracy

    @property
    def novel_accuracy(self) -> float:
        return self.report_after.novel_accuracy


# the PipelineConfig fields that only the finishing part of a cell reads
_FINISH_FIELDS = frozenset({"mode", "graph_mode", "finetune_steps", "base_shots"})


def base_phase_key(cfg: PipelineConfig, seed: int) -> tuple:
    """Content key of a cell's base phase, as (name, value) pairs: cells whose
    configs share the key can finish from one `BasePart`, so every srr cell
    shares the ssp cell's base part (see `base_phase_config`)."""
    shared = tuple((f.name, getattr(cfg, f.name)) for f in fields(cfg)
                   if f.name not in _FINISH_FIELDS)
    base_mode = base_phase_config(HeadConfig(mode=cfg.mode, graph_mode=cfg.graph_mode)).mode
    return (("seed", seed), ("base_mode", base_mode.value)) + shared


@dataclass
class BasePart:
    """The part of a cell that does not depend on k: one seed's data, the
    embeddings heads see, the base-trained head and its base-class report."""

    key: tuple
    seed: int
    we_full: np.ndarray
    base_data: FeatureSet
    novel_pool: FeatureSet
    test: FeatureSet
    head: Head
    report_before: MetricsReport


def train_base(cfg: PipelineConfig, seed: int) -> BasePart:
    """Generate a seed's data and run the base phase of its cells."""
    NONNEG_INT.check(seed, "seed")
    full_registry = cfg.registry()
    we_latent = clustered_embeddings(
        full_registry, cfg.d_e, cfg.n_clusters, CLUSTER_SPREAD, seed
    )
    # features come from the latent vectors; heads see only the noisy view
    we_full = noisy_view(we_latent, EMBED_NOISE, seed)
    data = generate(
        we_latent,
        full_registry,
        SynthConfig(
            d_in=cfg.d_in,
            train_per_class=cfg.train_per_class,
            test_per_class=cfg.test_per_class,
            alpha=cfg.alpha,
            margin_scale=MARGIN_SCALE,
            seed=seed,
        ),
    )
    base_data = data.train.with_labels(full_registry.base)

    base_registry = ClassRegistry(base=full_registry.base)
    base_rows = list(range(len(full_registry.base))) + [full_registry.background_index]
    we_base = we_full[base_rows]

    head_cfg = base_phase_config(HeadConfig(mode=cfg.mode, graph_mode=cfg.graph_mode,
                                            d_in=cfg.d_in, d=cfg.d, r=cfg.r, seed=seed))
    head = build_head(head_cfg, base_registry, we_base)  # a baseline head ignores we_base
    base_train(
        head,
        base_data,
        TrainConfig(
            lr=cfg.base_lr, steps=cfg.base_steps, batch_size=cfg.batch_size,
            reg_weight=REG_WEIGHT, seed=seed,
        ),
    )
    return BasePart(
        key=base_phase_key(cfg, seed), seed=seed, we_full=we_full, base_data=base_data,
        novel_pool=data.train.with_labels(full_registry.novel), test=data.test, head=head,
        report_before=evaluate(head, data.test.with_labels(full_registry.base)),
    )


def finish_cell(base: BasePart, cfg: PipelineConfig, k: int) -> CellResult:
    """Expand, fine-tune and evaluate a copy of ``base``'s head at ``k`` shots.

    ``base`` is left as it was and the cell holds copies of what it takes
    from it, so one base phase can finish any number of cells whose configs
    share its `base_phase_key`.
    """
    want = base_phase_key(cfg, base.seed)
    if base.key != want:
        differ = [name for (name, a), (_, b) in zip(base.key, want) if a != b]
        raise ValueError(f"the base phase does not fit this cell: {', '.join(differ)} differ")
    head = switch_graph_mode(copy.deepcopy(base.head), cfg.graph_mode, seed=base.seed)
    expand_classes(head, cfg.registry(), base.we_full, seed=base.seed)
    if rel.GRAPH in rel.STAGES[cfg.graph_mode].frozen:
        # co-occurrence over single-label records degenerates to identity;
        # use the row-normalized, clipped cosine weights of the embedding rows
        attach_heuristic_graph(head, _similarity_graph(head.params["we"].value))

    episode = sample_episode(base.base_data, base.novel_pool, k, cfg.base_shots, base.seed)
    finetune(
        head,
        episode,
        finetune_config(
            lr=FINETUNE_LR,
            steps=cfg.finetune_steps,
            batch_size=cfg.batch_size,
            reg_weight=REG_WEIGHT,
            seed=base.seed,
        ),
    )
    return CellResult(
        head=head, report_before=copy.deepcopy(base.report_before),
        report_after=evaluate(head, base.test), episode=episode,
    )


# the base part the latest run_cell call finished from, or None
_latest_base: BasePart | None = None


def run_cell(cfg: PipelineConfig, k: int, seed: int) -> CellResult:
    """One full two-phase run at a given shot count and seed.

    The base part comes from the previous call when its `base_phase_key`
    matches, and is trained afresh otherwise.  Either way the cell's bits
    equal ``finish_cell(train_base(cfg, seed), cfg, k)``.
    """
    global _latest_base
    # checked before the lookup: seed True would match seed 1's key
    key = base_phase_key(cfg, NONNEG_INT.check(seed, "seed"))
    if _latest_base is None or _latest_base.key != key:
        _latest_base = None  # free the old part before the new one trains
        _latest_base = train_base(cfg, seed)
    return finish_cell(_latest_base, cfg, k)


def _similarity_graph(we_matrix: np.ndarray) -> np.ndarray:
    """Row-stochastic cosine-similarity graph, a stand-in heuristic prior."""
    sims = we_matrix @ we_matrix.T
    sims = np.maximum(sims, 0.0)
    sums = sims.sum(axis=1, keepdims=True)
    sums[sums < 1e-12] = 1.0
    return sims / sums


def shot_sweep(cfg: PipelineConfig, shots, seeds) -> SweepResult:
    """Run the benchmark cell over a shot list and seed list.

    Cells run seed by seed through `run_cell`, so each distinct seed trains
    its base phase once and finishes one cell per distinct k from it.  Rows
    come out in (k, seed) order, repeats included.
    """
    shots = list(shots)
    seeds = list(seeds)
    if not shots or not seeds:
        raise ValueError("shot_sweep needs at least one shot count and one seed")
    rows = {}
    for seed in dict.fromkeys(seeds):
        for k in dict.fromkeys(shots):
            cell = run_cell(cfg, k, seed)
            rows[k, seed] = SweepRow(
                k=k,
                seed=seed,
                base_accuracy=cell.base_accuracy,
                novel_accuracy=cell.novel_accuracy,
                base_accuracy_before=cell.base_accuracy_before,
            )
    return SweepResult(rows=[rows[k, seed] for k in shots for seed in seeds])
