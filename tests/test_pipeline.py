"""Benchmark cells: embedding construction, the two-phase run, and sweeps."""

import numpy as np
import pytest

from semshot.embeddings import ClassRegistry, random_embeddings
from semshot.pipeline import (
    PipelineConfig,
    bundled_benchmark,
    clustered_embeddings,
    noisy_view,
    run_cell,
    shot_sweep,
    _similarity_graph,
)


TINY = dict(
    n_base=4, n_novel=2, d_e=8, d_in=12, d=8, r=4, n_clusters=2,
    train_per_class=6, test_per_class=4, base_steps=30, finetune_steps=10,
    base_shots=3, batch_size=8,
)


def test_bundled_benchmark_defaults():
    cfg = bundled_benchmark()
    assert cfg.n_base == 15 and cfg.n_novel == 5
    assert cfg.alpha == 0.9
    assert cfg.mode.value == "srr" and cfg.graph_mode.value == "dynamic"
    reg = cfg.registry()
    assert len(reg.base) == 15 and len(reg.novel) == 5
    assert reg.base[0] == "base00" and reg.novel[-1] == "novel04"
    ssp = bundled_benchmark(mode="ssp")
    assert ssp.graph_mode.value == "none"  # graph stage only applies to srr


def test_clustered_embeddings_are_unit_with_background():
    reg = ClassRegistry(base=("a", "b", "c"), novel=("d",))
    we = clustered_embeddings(reg, dim=10, n_clusters=2, spread=0.3, seed=4)
    assert we.n == 5  # 4 classes + background
    np.testing.assert_allclose(np.linalg.norm(we.matrix, axis=1), 1.0, atol=1e-12)
    again = clustered_embeddings(reg, dim=10, n_clusters=2, spread=0.3, seed=4)
    np.testing.assert_array_equal(we.matrix, again.matrix)
    # classes sharing a cluster (i % n_clusters) sit closer than cross-cluster
    same = we.matrix[0] @ we.matrix[2]   # both cluster 0
    cross = we.matrix[0] @ we.matrix[1]  # clusters 0 and 1
    assert same > cross
    with pytest.raises(ValueError, match="n_clusters must be at least 1, got 0"):
        clustered_embeddings(reg, dim=10, n_clusters=0, spread=0.3, seed=4)


def test_noisy_view_properties():
    reg = ClassRegistry(base=("a", "b"))
    we = random_embeddings(reg, dim=8, seed=0)
    assert noisy_view(we, 0.0, 1) is we
    with pytest.raises(ValueError, match="non-negative"):
        noisy_view(we, -0.1, 1)
    noisy = noisy_view(we, 0.2, 1)
    np.testing.assert_allclose(np.linalg.norm(noisy.matrix, axis=1), 1.0, atol=1e-12)
    assert not np.allclose(noisy.matrix, we.matrix)
    assert all(p.endswith("+noise=0.2") for p in noisy.provenance)
    np.testing.assert_array_equal(noisy_view(we, 0.2, 1).matrix, noisy.matrix)
    assert not np.allclose(noisy_view(we, 0.2, 2).matrix, noisy.matrix)


def test_similarity_graph_is_row_stochastic():
    reg = ClassRegistry(base=("a", "b", "c"))
    we = random_embeddings(reg, dim=8, seed=1)
    g = _similarity_graph(we.matrix)
    np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)
    assert (g >= 0).all()


@pytest.mark.parametrize("mode,graph", [
    ("baseline", "none"), ("ssp", "none"),
    ("srr", "dynamic"), ("srr", "tt"), ("srr", "heuristic"),
])
def test_run_cell_smoke_every_mode(mode, graph):
    cfg = bundled_benchmark(mode=mode, graph_mode=graph, **TINY)
    cell = run_cell(cfg, k=1, seed=0)
    assert cell.head.n_classes == 4 + 2 + 1
    assert 0.0 <= cell.novel_accuracy <= 1.0
    assert 0.0 <= cell.base_accuracy <= 1.0
    assert cell.report_before.record_count == 4 * 4
    assert cell.report_after.record_count == 6 * 4
    assert cell.episode.k == 1 and len(cell.episode.novel) == 2


def test_run_cell_is_deterministic():
    cfg = bundled_benchmark(**TINY)
    a = run_cell(cfg, k=2, seed=3)
    b = run_cell(cfg, k=2, seed=3)
    assert a.novel_accuracy == b.novel_accuracy
    assert a.base_accuracy == b.base_accuracy
    assert a.head.param_hash() == b.head.param_hash()
    c = run_cell(cfg, k=2, seed=4)
    assert c.head.param_hash() != a.head.param_hash()


def test_run_cell_decoupled_variant():
    cfg = bundled_benchmark(decouple=True, **TINY)
    cell = run_cell(cfg, k=1, seed=1)
    assert cell.head.cfg.decoupled
    assert "cls_trunk_w1" in cell.head.params


def test_shot_sweep_shapes_and_validation():
    cfg = bundled_benchmark(**TINY)
    res = shot_sweep(cfg, shots=[1, 2], seeds=[0, 1, 2])
    assert len(res.rows) == 6
    assert sorted({r.k for r in res.rows}) == [1, 2]
    assert sorted({r.seed for r in res.rows}) == [0, 1, 2]
    with pytest.raises(ValueError, match="at least one"):
        shot_sweep(cfg, shots=[], seeds=[0])
    with pytest.raises(ValueError, match="at least one"):
        shot_sweep(cfg, shots=[1], seeds=[])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_diverging_base_lr_fails_loudly():
    # at base_lr=50 the forward pass overflows while every parameter is still
    # finite; the cell must stop rather than report a novel accuracy of 0.0
    cfg = bundled_benchmark(mode="ssp", base_lr=50)
    with pytest.raises(
        FloatingPointError,
        match=r"^base_train: loss is nan at step 6 \(lr 50\); .* the largest is 'trunk_b1'",
    ):
        run_cell(cfg, 1, 0)
