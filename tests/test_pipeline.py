"""Benchmark cells: embedding construction, the two-phase run, and sweeps."""

import json

import numpy as np
import pytest

from semshot import pipeline
from semshot.embeddings import ClassRegistry, random_embeddings
from semshot.evaluation import SweepRow, evaluate
from semshot.head import (
    HeadConfig,
    attach_heuristic_graph,
    build_head,
    decouple_trunks,
    expand_classes,
)
from semshot.pipeline import (
    FINETUNE_LR,
    REG_WEIGHT,
    PipelineConfig,
    base_phase_key,
    bundled_benchmark,
    clustered_embeddings,
    finish_cell,
    noisy_view,
    run_cell,
    shot_sweep,
    train_base,
    _similarity_graph,
)
from semshot.training import (
    TrainConfig,
    base_train,
    finetune,
    finetune_config,
    sample_episode,
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


def _report(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def _own_mode_cell(cfg, k, seed):
    """(param hash, report before, report after) of a cell whose head has the
    config's own mode from the start, on ``train_base``'s data."""
    part = train_base(cfg, seed)  # only its data and embeddings are used
    registry = cfg.registry()
    heuristic = cfg.graph_mode.value == "heuristic"
    we_base = part.we_full.select_rows(list(range(cfg.n_base)) + [registry.background_index])
    head = build_head(
        HeadConfig(mode=cfg.mode, graph_mode=cfg.graph_mode, d_in=cfg.d_in, d=cfg.d, r=cfg.r,
                   graph_in_base=False, seed=seed),
        ClassRegistry(base=registry.base), we_base,
    )
    if heuristic:
        attach_heuristic_graph(head, _similarity_graph(we_base.matrix))
    base_train(head, part.base_data, TrainConfig(
        lr=cfg.base_lr, steps=cfg.base_steps, batch_size=cfg.batch_size,
        reg_weight=REG_WEIGHT, seed=seed,
    ))
    before = evaluate(head, part.test.with_labels(registry.base))
    expand_classes(head, registry, part.we_full, seed=seed)
    if heuristic:
        attach_heuristic_graph(head, _similarity_graph(head.we.matrix))
    if cfg.decouple:
        decouple_trunks(head)
    episode = sample_episode(part.base_data, part.novel_pool,
                             k=k, base_shots=cfg.base_shots, seed=seed)
    finetune(head, episode, finetune_config(
        lr=FINETUNE_LR, steps=cfg.finetune_steps, batch_size=cfg.batch_size,
        reg_weight=REG_WEIGHT, seed=seed,
    ))
    return head.param_hash(), _report(before), _report(evaluate(head, part.test))


@pytest.mark.parametrize("mode,graph,decouple,base_mode", [
    ("baseline", "none", False, "baseline"),
    ("ssp", "none", False, "ssp"),
    ("srr", "dynamic", False, "ssp"),
    ("srr", "heuristic", False, "srr"),
    ("srr", "tt", False, "ssp"),
    ("srr", "dynamic", True, "ssp"),
])
def test_finishing_from_a_shared_base_matches_a_head_of_its_own_mode(mode, graph, decouple,
                                                                      base_mode):
    cfg = bundled_benchmark(mode=mode, graph_mode=graph, decouple=decouple, **TINY)
    base_cfg = bundled_benchmark(mode=base_mode, graph_mode=graph if base_mode == "srr" else None,
                                 **TINY)
    for seed in (0, 7):
        part = train_base(base_cfg, seed)
        assert part.head.mode.value == base_mode
        want = _own_mode_cell(cfg, 2, seed)
        for cell in (finish_cell(part, cfg, 2), run_cell(cfg, 2, seed)):
            assert cell.head.cfg.mode.value == mode and cell.head.cfg.decoupled == decouple
            assert (cell.head.param_hash(), _report(cell.report_before),
                    _report(cell.report_after)) == want


def test_base_phase_key_ignores_what_only_the_finish_reads():
    ssp = base_phase_key(bundled_benchmark(mode="ssp", **TINY), 3)
    for graph in ("dynamic", "tt"):
        assert base_phase_key(bundled_benchmark(graph_mode=graph, **TINY), 3) == ssp
    finish_only = dict(TINY, finetune_steps=99, base_shots=1)
    assert base_phase_key(bundled_benchmark(mode="ssp", decouple=True, **finish_only), 3) == ssp
    for other in (bundled_benchmark(mode="baseline", **TINY),
                  bundled_benchmark(graph_mode="heuristic", **TINY),
                  bundled_benchmark(mode="ssp", **dict(TINY, base_steps=31))):
        assert base_phase_key(other, 3) != ssp
    assert base_phase_key(bundled_benchmark(mode="ssp", **TINY), 4) != ssp


def test_finishing_twice_leaves_the_base_head_unchanged():
    cfg = bundled_benchmark(**TINY)
    part = train_base(cfg, 5)
    before = part.head.param_hash()
    a = finish_cell(part, cfg, 2)
    b = finish_cell(part, bundled_benchmark(decouple=True, **TINY), 1)
    c = finish_cell(part, cfg, 2)
    assert part.head.param_hash() == before and part.head.mode.value == "ssp"
    assert a.head.param_hash() == c.head.param_hash() != b.head.param_hash()


def test_finish_cell_rejects_a_base_of_another_config():
    part = train_base(bundled_benchmark(mode="baseline", **TINY), 2)
    with pytest.raises(ValueError, match=r"^the base phase does not fit this cell: "
                                         r"base_mode differ$"):
        finish_cell(part, bundled_benchmark(mode="ssp", **TINY), 1)
    with pytest.raises(ValueError, match="base_mode, alpha differ"):
        finish_cell(part, bundled_benchmark(mode="ssp", alpha=0.5, **TINY), 1)


def test_shot_sweep_rows_equal_serial_cells_with_repeats():
    cfg = bundled_benchmark(**TINY)
    shots, seeds = [2, 1, 2], [3, 0, 3]
    want = []
    for k in shots:
        for seed in seeds:
            cell = run_cell(cfg, k, seed)
            want.append(SweepRow(k=k, seed=seed, base_accuracy=cell.base_accuracy,
                                 novel_accuracy=cell.novel_accuracy,
                                 base_accuracy_before=cell.base_accuracy_before))
    assert shot_sweep(cfg, shots, seeds).rows == want


def test_shot_sweep_trains_each_seeds_base_phase_once(monkeypatch):
    calls = []

    def counting(head, data, train_cfg):
        calls.append(train_cfg.seed)
        return base_train(head, data, train_cfg)

    monkeypatch.setattr(pipeline, "base_train", counting)
    res = shot_sweep(bundled_benchmark(**TINY), shots=[1, 2, 3], seeds=[4, 6])
    assert len(res.rows) == 6
    assert calls == [4, 6]
