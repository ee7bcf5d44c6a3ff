"""Benchmark cells: embedding construction, the two-phase run, and sweeps."""

import gc
import json
import re

import numpy as np
import pytest

from semshot import pipeline
from semshot.embeddings import ClassRegistry, random_embeddings
from semshot.evaluation import SweepRow, evaluate
from semshot.head import (
    HeadConfig,
    attach_heuristic_graph,
    build_head,
    expand_classes,
    switch_graph_mode,
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
    assert len(we) == 5  # 4 classes + background
    np.testing.assert_allclose(np.linalg.norm(we, axis=1), 1.0, atol=1e-12)
    again = clustered_embeddings(reg, dim=10, n_clusters=2, spread=0.3, seed=4)
    np.testing.assert_array_equal(we, again)
    # classes sharing a cluster (i % n_clusters) sit closer than cross-cluster
    same = we[0] @ we[2]   # both cluster 0
    cross = we[0] @ we[1]  # clusters 0 and 1
    assert same > cross
    with pytest.raises(ValueError, match=re.escape("n_clusters must be finite and in [1, inf), "
                                                   "got 0")):
        clustered_embeddings(reg, dim=10, n_clusters=0, spread=0.3, seed=4)
    for spread in (-1.0, float("nan")):
        with pytest.raises(ValueError, match=re.escape(f"spread must be finite and in [0, inf), "
                                                       f"got {spread}")):
            clustered_embeddings(reg, dim=10, n_clusters=2, spread=spread, seed=4)


def test_noisy_view_properties():
    reg = ClassRegistry(base=("a", "b"))
    we = random_embeddings(reg, dim=8, seed=0)
    assert noisy_view(we, 0.0, 1) is we
    for noise in (-0.1, float("nan")):
        with pytest.raises(ValueError, match=re.escape(
                f"embedding noise must be finite and in [0, inf), got {noise}")):
            noisy_view(we, noise, 1)
    noisy = noisy_view(we, 0.2, 1)
    np.testing.assert_allclose(np.linalg.norm(noisy, axis=1), 1.0, atol=1e-12)
    assert noisy.shape == we.shape and not np.allclose(noisy, we)
    np.testing.assert_array_equal(noisy_view(we, 0.2, 1), noisy)
    assert not np.allclose(noisy_view(we, 0.2, 2), noisy)


def test_similarity_graph_is_row_stochastic():
    reg = ClassRegistry(base=("a", "b", "c"))
    we = random_embeddings(reg, dim=8, seed=1)
    g = _similarity_graph(we)
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
    # seed 4 in between, so the second seed-3 call trains its base phase afresh
    cfg = bundled_benchmark(**TINY)
    a = run_cell(cfg, k=2, seed=3)
    c = run_cell(cfg, k=2, seed=4)
    b = run_cell(cfg, k=2, seed=3)
    assert a.novel_accuracy == b.novel_accuracy
    assert a.base_accuracy == b.base_accuracy
    assert a.head.param_hash() == b.head.param_hash()
    assert c.head.param_hash() != a.head.param_hash()


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


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda cfg: shot_sweep(cfg, [True], [True]), "seed must be finite and in "
                 "[0, inf), got True", id="bool_shot_and_seed"),
    pytest.param(lambda cfg: shot_sweep(cfg, [True], [0]), "k must be finite and in "
                 "[1, inf), got True", id="bool_shot"),
    pytest.param(lambda cfg: shot_sweep(cfg, [1], [-1]), "seed must be finite and in "
                 "[0, inf), got -1", id="negative_seed"),
    pytest.param(lambda cfg: shot_sweep(cfg, [1], [1.5]), "seed must be finite and in "
                 "[0, inf), got 1.5", id="fractional_seed"),
    pytest.param(lambda cfg: train_base(cfg, -2), "seed must be finite and in [0, inf), got -2",
                 id="train_base_seed"),
    pytest.param(lambda cfg: (run_cell(cfg, 1, 1), run_cell(cfg, 1, True)),
                 "seed must be finite and in [0, inf), got True", id="bool_seed_after_seed_1"),
    pytest.param(lambda cfg: PipelineConfig(d_e=0), "d_e must be finite and in [1, inf), got 0",
                 id="zero_embedding_dim"),
])
def test_a_bad_seed_shot_or_embedding_dim_is_an_error_naming_it(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(bundled_benchmark(**TINY))


# one out-of-interval value per numeric field (d_e has its row above); without
# the check each fails only downstream, after the seed's data is generated
@pytest.mark.parametrize("name,bad,interval", [
    ("n_base", 0, "[1, inf)"), ("n_novel", 0, "[1, inf)"), ("d_in", 0, "[1, inf)"),
    ("d", 0, "[1, inf)"), ("r", 0, "[1, inf)"), ("n_clusters", 0, "[1, inf)"),
    ("alpha", 1.5, "[0, 1]"), ("train_per_class", 0, "[1, inf)"),
    ("test_per_class", 0, "[1, inf)"), ("base_steps", 0, "[1, inf)"),
    ("base_lr", -1.0, "(0, inf)"), ("finetune_steps", 0, "[1, inf)"),
    ("base_shots", -1, "[0, inf)"), ("batch_size", 0, "[1, inf)"),
])
def test_a_pipeline_config_checks_every_numeric_field_naming_it(name, bad, interval):
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be finite and in {interval}, got {bad}")):
        bundled_benchmark(**{**TINY, name: bad})


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


def _bits(cell) -> tuple:
    return cell.head.param_hash(), _report(cell.report_before), _report(cell.report_after)


def _own_mode_cell(cfg, k, seed):
    """(param hash, report before, report after) of a cell run step by step
    on ``train_base``'s data, with no base part shared: an srr config's
    head base-trains as its projection head, then gets its relation stage."""
    part = train_base(cfg, seed)  # only its data and embeddings are used
    registry = cfg.registry()
    srr = cfg.mode.value == "srr"
    we_base = part.we_full[list(range(cfg.n_base)) + [registry.background_index]]
    head = build_head(
        HeadConfig(mode="ssp" if srr else cfg.mode, d_in=cfg.d_in, d=cfg.d, r=cfg.r, seed=seed),
        ClassRegistry(base=registry.base), we_base,
    )
    base_train(head, part.base_data, TrainConfig(
        lr=cfg.base_lr, steps=cfg.base_steps, batch_size=cfg.batch_size,
        reg_weight=REG_WEIGHT, seed=seed,
    ))
    before = evaluate(head, part.test.with_labels(registry.base))
    if srr:
        switch_graph_mode(head, cfg.graph_mode, seed=seed)
    expand_classes(head, registry, part.we_full, seed=seed)
    if cfg.graph_mode.value == "heuristic":
        attach_heuristic_graph(head, _similarity_graph(head.params["we"].value))
    episode = sample_episode(part.base_data, part.novel_pool,
                             k=k, base_shots=cfg.base_shots, seed=seed)
    finetune(head, episode, finetune_config(
        lr=FINETUNE_LR, steps=cfg.finetune_steps, batch_size=cfg.batch_size,
        reg_weight=REG_WEIGHT, seed=seed,
    ))
    return head.param_hash(), _report(before), _report(evaluate(head, part.test))


@pytest.mark.parametrize("mode,graph,base_mode", [
    ("baseline", "none", "baseline"),
    ("ssp", "none", "ssp"),
    ("srr", "dynamic", "ssp"),
    ("srr", "heuristic", "ssp"),
    ("srr", "tt", "ssp"),
])
def test_finishing_from_a_shared_base_matches_a_head_of_its_own_mode(mode, graph, base_mode):
    cfg = bundled_benchmark(mode=mode, graph_mode=graph, **TINY)
    base_cfg = bundled_benchmark(mode=base_mode, **TINY)
    for seed in (0, 7):
        part = train_base(base_cfg, seed)
        assert part.head.mode.value == base_mode
        want = _own_mode_cell(cfg, 2, seed)
        for cell in (finish_cell(part, cfg, 2), run_cell(cfg, 2, seed)):
            assert cell.head.cfg.mode.value == mode
            assert _bits(cell) == want


def test_base_phase_key_ignores_what_only_the_finish_reads():
    ssp = base_phase_key(bundled_benchmark(mode="ssp", **TINY), 3)
    for graph in ("dynamic", "tt", "heuristic"):
        assert base_phase_key(bundled_benchmark(graph_mode=graph, **TINY), 3) == ssp
    finish_only = dict(TINY, finetune_steps=99, base_shots=1)
    assert base_phase_key(bundled_benchmark(mode="ssp", **finish_only), 3) == ssp
    for other in (bundled_benchmark(mode="baseline", **TINY),
                  bundled_benchmark(mode="ssp", **dict(TINY, base_steps=31))):
        assert base_phase_key(other, 3) != ssp
    assert base_phase_key(bundled_benchmark(mode="ssp", **TINY), 4) != ssp


def test_finishing_twice_leaves_the_base_head_unchanged():
    cfg = bundled_benchmark(**TINY)
    part = train_base(cfg, 5)
    before = part.head.param_hash()
    a = finish_cell(part, cfg, 2)
    b = finish_cell(part, bundled_benchmark(**dict(TINY, finetune_steps=99, base_shots=1)), 1)
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


def _counting_base_train(monkeypatch) -> list:
    """Patch ``pipeline.base_train`` to log each call's seed; returns the log."""
    calls = []

    def counting(head, data, train_cfg):
        calls.append(train_cfg.seed)
        return base_train(head, data, train_cfg)

    monkeypatch.setattr(pipeline, "base_train", counting)
    return calls


def test_shot_sweep_trains_each_seeds_base_phase_once(monkeypatch):
    run_cell(bundled_benchmark(mode="baseline", **TINY), 1, 4)  # no earlier base to reuse
    calls = _counting_base_train(monkeypatch)
    res = shot_sweep(bundled_benchmark(**TINY), shots=[1, 2, 3], seeds=[4, 6])
    assert len(res.rows) == 6
    assert calls == [4, 6]


def test_run_cell_finishes_a_deferred_srr_head_from_the_ssp_base(monkeypatch):
    cfgs = [bundled_benchmark(mode="ssp", **TINY)] + [
        bundled_benchmark(graph_mode=graph, **TINY) for graph in ("heuristic", "dynamic", "tt")]
    want = [_bits(finish_cell(train_base(cfg, 8), cfg, 1)) for cfg in cfgs]
    run_cell(bundled_benchmark(mode="baseline", **TINY), 1, 8)  # no earlier base to reuse
    calls = _counting_base_train(monkeypatch)
    cells = [run_cell(cfg, 1, 8) for cfg in cfgs]
    assert calls == [8]
    assert [_bits(cell) for cell in cells] == want
    # the heuristic graph joins at fine-tuning, so the base report is the ssp head's
    assert _report(cells[1].report_before) == _report(cells[0].report_before)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_run_cell_trains_afresh_after_a_failed_base_phase(monkeypatch):
    cfg = bundled_benchmark(mode="ssp", **TINY)
    run_cell(cfg, 1, 0)
    with pytest.raises(FloatingPointError, match="^base_train: loss is nan"):
        run_cell(bundled_benchmark(mode="ssp", base_lr=50), 1, 0)
    calls = _counting_base_train(monkeypatch)
    assert _bits(run_cell(cfg, 1, 0)) == _bits(finish_cell(train_base(cfg, 0), cfg, 1))
    assert calls == [0, 0]  # the cell, then the reference


def test_mutating_a_cell_leaves_the_next_cell_from_its_base_unchanged():
    cfg = bundled_benchmark(**TINY)
    want = _bits(finish_cell(train_base(cfg, 9), cfg, 2))
    first = run_cell(cfg, 1, 9)
    for p in first.head.params.values():
        p.value[...] = 7.0
    first.report_before.confusion[...] = 7
    first.report_before.per_class_accuracy.clear()
    assert _bits(run_cell(cfg, 2, 9)) == want


def test_run_cell_leaves_no_reference_cycles():
    gc.collect()
    run_cell(bundled_benchmark(mode="ssp", **TINY), 1, 10)
    run_cell(bundled_benchmark(**TINY), 2, 10)
    assert gc.collect() == 0
