"""End-to-end benchmark cells: generate data, base-train, expand, fine-tune.

The bundled benchmark builds clustered class embeddings (novel classes sit
inside base-class neighborhoods, the way real word embeddings behave), derives
a synthetic feature corpus from them, and runs the two-phase protocol for one
head configuration.  Every stochastic choice hangs off the cell seed, so two
heads run on the same seed see identical data and differ only in the head.
"""

from dataclasses import dataclass

import numpy as np

from . import relation as rel
from .diffmath import l2_normalize_rows
from .embeddings import ClassRegistry, EmbeddingMatrix, compose_background_row
from .evaluation import MetricsReport, SweepResult, SweepRow, evaluate
from .head import Head, HeadConfig, HeadMode, build_head, decouple_trunks, expand_classes
from .synthgen import SynthConfig, generate
from .training import (
    Episode,
    EpisodeConfig,
    TrainConfig,
    base_train,
    finetune,
    finetune_config,
    sample_episode,
)

_STREAM_CLUSTER = 8
_STREAM_EMBED_NOISE = 9


def noisy_view(we: EmbeddingMatrix, noise: float, seed: int) -> EmbeddingMatrix:
    """The embeddings a head actually sees: a corrupted copy of `we`.

    Real word vectors are imperfect proxies for the semantics that shape
    visual features; the benchmark models that by generating features from
    latent vectors while giving heads only this noisy, renormalized view.
    Attention over related classes can average the corruption back out,
    which is the capability the dynamic-graph head is meant to show.
    """
    if noise < 0:
        raise ValueError("embedding noise must be non-negative")
    if noise == 0:
        return we
    rng = np.random.default_rng([seed, _STREAM_EMBED_NOISE])
    rows = l2_normalize_rows(we.matrix + noise * rng.standard_normal(we.matrix.shape))
    prov = tuple(f"{p}+noise={noise:g}" for p in we.provenance)
    return EmbeddingMatrix(rows, prov)


def clustered_embeddings(registry: ClassRegistry, dim: int, n_clusters: int,
                         spread: float, seed: int) -> EmbeddingMatrix:
    """Unit class embeddings grouped around shared cluster centers.

    Base and novel classes are interleaved across clusters, so each novel
    class has semantically close base classes, which is what the relation
    stage feeds on.
    """
    rng = np.random.default_rng([seed, _STREAM_CLUSTER])
    centers = l2_normalize_rows(rng.standard_normal((n_clusters, dim)))
    names = registry.base + registry.novel
    rows = np.empty((len(names), dim))
    for i in range(len(names)):
        center = centers[i % n_clusters]
        rows[i] = center + spread * rng.standard_normal(dim)
    rows = l2_normalize_rows(rows)
    matrix = np.vstack([rows, compose_background_row(dim, seed).reshape(1, -1)])
    prov = tuple(f"clustered:seed={seed}" for _ in names) + (f"background:seed={seed}",)
    return EmbeddingMatrix(matrix, prov)


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
    cluster_spread: float = 0.35
    embed_noise: float = 0.1
    alpha: float = 0.9
    noise_std: float | None = None
    margin_scale: float = 0.15
    train_per_class: int = 30
    test_per_class: int = 25
    base_steps: int = 500
    base_lr: float = 0.02
    finetune_lr: float = 0.005
    finetune_steps: int | None = None
    base_shots: int | None = 30
    batch_size: int = 16
    reg_weight: float = 0.1
    scaled_attention: bool = True
    attention_gain: float = rel.DEFAULT_ATTENTION_GAIN
    graph_in_base: bool = False
    decouple: bool = False
    trainable: tuple | None = None

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = HeadMode(self.mode)
        # drop a non-srr head's graph mode: perfbench/workloads.py passes "dynamic" for all
        graph = self.graph_mode if self.mode is HeadMode.SRR else None
        self.graph_mode = HeadConfig(mode=self.mode, graph_mode=graph).graph_mode

    def registry(self) -> ClassRegistry:
        return ClassRegistry(
            base=tuple(f"base{i:02d}" for i in range(self.n_base)),
            novel=tuple(f"novel{i:02d}" for i in range(self.n_novel)),
        )


def bundled_benchmark(mode="srr", graph_mode=None, alpha: float = 0.9,
                      **overrides) -> PipelineConfig:
    """The stock 15-base / 5-novel configuration the acceptance runs use."""
    return PipelineConfig(mode=mode, graph_mode=graph_mode, alpha=alpha, **overrides)


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


def run_cell(cfg: PipelineConfig, k: int, seed: int) -> CellResult:
    """One full two-phase run at a given shot count and seed."""
    full_registry = cfg.registry()
    we_latent = clustered_embeddings(
        full_registry, cfg.d_e, cfg.n_clusters, cfg.cluster_spread, seed
    )
    # features come from the latent vectors; heads see only the noisy view
    we_full = noisy_view(we_latent, cfg.embed_noise, seed)
    data = generate(
        we_latent,
        full_registry,
        SynthConfig(
            d_in=cfg.d_in,
            train_per_class=cfg.train_per_class,
            test_per_class=cfg.test_per_class,
            alpha=cfg.alpha,
            noise_std=cfg.noise_std,
            margin_scale=cfg.margin_scale,
            seed=seed,
        ),
    )

    base_names = set(full_registry.base)
    novel_names = set(full_registry.novel)
    base_train_data = [r for r in data.train if r.label in base_names]
    novel_pool = [r for r in data.train if r.label in novel_names]
    test_base = [r for r in data.test if r.label in base_names]
    test_all = data.test

    base_registry = ClassRegistry(base=full_registry.base)
    base_rows = list(range(len(full_registry.base))) + [full_registry.background_index]
    we_base = we_full.select_rows(base_rows)

    head_cfg = HeadConfig(
        mode=cfg.mode,
        graph_mode=cfg.graph_mode,
        d_in=cfg.d_in,
        d=cfg.d,
        r=cfg.r,
        scaled_attention=cfg.scaled_attention,
        attention_gain=cfg.attention_gain,
        graph_in_base=cfg.graph_in_base,
        seed=seed,
    )
    head = build_head(head_cfg, base_registry, we_base)  # a baseline head ignores we_base
    if cfg.graph_mode is rel.GraphMode.HEURISTIC:
        # co-occurrence over single-label records degenerates to identity;
        # use embedding-neighborhood counts instead
        head.g_heur = _similarity_graph(we_base.matrix)

    base_train(
        head,
        base_train_data,
        TrainConfig(
            lr=cfg.base_lr, steps=cfg.base_steps, batch_size=cfg.batch_size,
            reg_weight=cfg.reg_weight, seed=seed,
        ),
    )
    report_before = evaluate(head, test_base)

    expand_classes(head, full_registry, we_full, seed=seed)
    if cfg.graph_mode is rel.GraphMode.HEURISTIC:
        head.g_heur = _similarity_graph(head.we.matrix)
    if cfg.decouple:
        decouple_trunks(head)

    episode = sample_episode(
        base_train_data, novel_pool,
        EpisodeConfig(k=k, base_shots=cfg.base_shots, seed=seed),
    )
    finetune(
        head,
        episode,
        finetune_config(
            lr=cfg.finetune_lr,
            steps=cfg.finetune_steps,
            batch_size=cfg.batch_size,
            reg_weight=cfg.reg_weight,
            trainable=cfg.trainable,
            seed=seed,
        ),
    )
    report_after = evaluate(head, test_all)
    return CellResult(
        head=head, report_before=report_before, report_after=report_after, episode=episode,
    )


def _similarity_graph(we_matrix: np.ndarray) -> np.ndarray:
    """Row-stochastic cosine-similarity graph, a stand-in heuristic prior."""
    sims = we_matrix @ we_matrix.T
    sims = np.maximum(sims, 0.0)
    sums = sims.sum(axis=1, keepdims=True)
    sums[sums < 1e-12] = 1.0
    return sims / sums


def shot_sweep(cfg: PipelineConfig, shots, seeds) -> SweepResult:
    """Run the benchmark cell over a shot list and seed list."""
    shots = list(shots)
    seeds = list(seeds)
    if not shots or not seeds:
        raise ValueError("shot_sweep needs at least one shot count and one seed")
    rows = []
    for k in shots:
        for seed in seeds:
            cell = run_cell(cfg, k, seed)
            rows.append(
                SweepRow(
                    k=k,
                    seed=seed,
                    base_accuracy=cell.base_accuracy,
                    novel_accuracy=cell.novel_accuracy,
                    base_accuracy_before=cell.base_accuracy_before,
                )
            )
    return SweepResult(rows=rows)
