"""Optimizer math, episode sampling, and the two training phases."""

import gc
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semshot import head as head_module
from semshot import kernels, training
from semshot.diffmath import Param, Tape
from semshot.embeddings import ClassRegistry, random_embeddings
from semshot.records import FeatureSet, concat
from semshot.training import (
    DEFAULT_FINETUNE_LR,
    DEFAULT_MILESTONES,
    DEFAULT_SHOT_LIST,
    Episode,
    ParamBlock,
    TrainConfig,
    balanced_batch_iter,
    base_train,
    default_finetune_groups,
    finetune,
    finetune_config,
    finetune_steps_for,
    lr_at,
    sample_episode,
    save_trace_csv,
    sgd_step,
)

from conftest import make_head


def fake_records(labels, per_class, d_in, seed=0, prefix="r"):
    rng = np.random.default_rng(seed)
    ids, names, feats, regs = [], [], [], []
    for label in labels:
        for j in range(per_class):
            ids.append(f"{prefix}-{label}-{j}")
            names.append(label)
            feats.append(rng.standard_normal(d_in))
            regs.append(rng.standard_normal(4))
    return FeatureSet(ids, names, np.array(feats).reshape(-1, d_in).T,
                      np.array(regs).reshape(-1, 4).T)


def no_records(d_in=4):
    return fake_records([], 0, d_in)


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_step_matches_recurrence():
    # a block of params of mixed shapes moves exactly as each param would on
    # its own under  v <- mu v + g + wd p;  p <- p - lr v
    cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.01)
    rng = np.random.default_rng(3)
    params = [Param(f"p{i}", rng.standard_normal(shape))
              for i, shape in enumerate([(1, 2), (3, 1), (2, 3), (1, 1)])]
    buffers = [p.grad for p in params]
    ref_p = [p.value.copy() for p in params]
    ref_v = [np.zeros_like(v) for v in ref_p]
    block = ParamBlock(params)
    for lr in (0.1, 0.1, 0.01):
        for i, p in enumerate(params):
            p.grad[...] = rng.standard_normal(p.grad.shape)
            ref_v[i] = 0.9 * ref_v[i] + p.grad + 0.01 * ref_p[i]
            ref_p[i] = ref_p[i] - lr * ref_v[i]
        sgd_step(block, cfg, lr)
    for p, buffer, want_p, want_v, view in zip(
            params, buffers, ref_p, ref_v, np.split(block.velocity, [2, 5, 11])):
        assert p.grad is buffer and np.shares_memory(p.value, block.value)
        np.testing.assert_array_equal(p.value, want_p)
        np.testing.assert_array_equal(view.reshape(want_v.shape), want_v)


@pytest.mark.parametrize("field,value,message", [
    ("lr", 0.0, "lr must be finite and in (0, inf), got 0.0"),
    ("lr", -0.001, "lr must be finite and in (0, inf), got -0.001"),
    ("lr", float("inf"), "lr must be finite and in (0, inf), got inf"),
    ("momentum", 1.0, "momentum must be finite and in [0, 1), got 1.0"),
    ("momentum", -0.1, "momentum must be finite and in [0, 1), got -0.1"),
    ("momentum", float("nan"), "momentum must be finite and in [0, 1), got nan"),
    ("weight_decay", -1.0, "weight_decay must be finite and in [0, inf), got -1.0"),
    ("weight_decay", float("inf"), "weight_decay must be finite and in [0, inf), got inf"),
    ("reg_weight", -0.5, "reg_weight must be finite and in [0, inf), got -0.5"),
    ("reg_weight", float("nan"), "reg_weight must be finite and in [0, inf), got nan"),
    ("lr", True, "lr must be finite and in (0, inf), got True"),
    ("seed", -1, "seed must be finite and in [0, inf), got -1"),
    ("seed", 1.5, "seed must be finite and in [0, inf), got 1.5"),
])
def test_train_config_rejects_out_of_range_optimizer_values(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(**{field: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        finetune_config(**{field: value})


def test_lr_schedule_decays_at_milestones():
    total = 300
    assert lr_at(0.02, DEFAULT_MILESTONES, 0, total) == 0.02
    assert lr_at(0.02, DEFAULT_MILESTONES, 199, total) == 0.02
    assert lr_at(0.02, DEFAULT_MILESTONES, 200, total) == pytest.approx(0.002)
    assert lr_at(0.02, DEFAULT_MILESTONES, 250, total) == pytest.approx(0.0002)
    assert lr_at(0.02, (), 250, total) == 0.02


def test_finetune_config_defaults():
    cfg = finetune_config()
    assert cfg.lr == DEFAULT_FINETUNE_LR == 0.001
    assert cfg.steps is None
    assert finetune_config(lr=0.005).lr == 0.005
    assert DEFAULT_SHOT_LIST == (1, 2, 3, 5, 10)


# ---------------------------------------------------------------------------
# episode sampling


def test_sample_episode_counts_and_determinism():
    base = fake_records(["cat", "dog"], 6, 4, seed=1)
    novel = fake_records(["fox", "owl"], 6, 4, seed=2)
    ep1 = sample_episode(base, novel, k=2, base_shots=3, seed=9)
    ep2 = sample_episode(base, novel, k=2, base_shots=3, seed=9)
    assert ep1.ids() == ep2.ids()
    assert len(ep1.novel) == 4 and len(ep1.base) == 6
    labels = sorted(ep1.novel.labels)
    assert labels == ["fox", "fox", "owl", "owl"]


def test_sample_episode_larger_k_extends_smaller():
    novel = fake_records(["fox", "owl"], 8, 4, seed=3)
    small = sample_episode(no_records(), novel, k=2, base_shots=0, seed=5)
    large = sample_episode(no_records(), novel, k=5, base_shots=0, seed=5)
    small_ids = set(small.novel.ids)
    large_ids = set(large.novel.ids)
    assert small_ids <= large_ids


def test_sample_episode_novel_picks_ignore_base_pool():
    novel = fake_records(["fox"], 5, 4, seed=4)
    with_base = sample_episode(fake_records(["cat"], 5, 4), novel, k=2, base_shots=1, seed=7)
    without = sample_episode(no_records(), novel, k=2, base_shots=1, seed=7)
    assert with_base.ids()["novel"] == without.ids()["novel"]


def test_sample_episode_shortfall_names_the_class():
    novel = fake_records(["fox"], 2, 4)
    with pytest.raises(ValueError, match=re.escape("'fox' has 2 records, needs 3 (k)")):
        sample_episode(no_records(), novel, k=3, base_shots=0)
    with pytest.raises(ValueError, match=re.escape(
            "'cat' has 1 records, needs 2 (base_shots, which defaults to k)")):
        sample_episode(fake_records(["cat"], 1, 4), novel, k=2)
    with pytest.raises(ValueError, match=re.escape("'cat' has 1 records, needs 2 (--shots)")):
        sample_episode(fake_records(["cat"], 1, 4), novel, k=1, base_shots=2,
                       names=("--k", "--shots"))
    with pytest.raises(ValueError, match=re.escape("k must be finite and in [1, inf), got 0")):
        sample_episode(no_records(), novel, k=0)
    with pytest.raises(ValueError, match=re.escape(
            "base_shots must be finite and in [0, inf), got -1")):
        sample_episode(fake_records(["cat"], 3, 4), novel, k=1, base_shots=-1)
    with pytest.raises(ValueError, match="no novel records"):
        sample_episode(no_records(), no_records(), k=1)


def test_balanced_batches_draw_classes_uniformly():
    base = fake_records(["cat"], 90, 4)      # lopsided pools on purpose
    novel = fake_records(["fox"], 2, 4)
    pool = concat(base, novel)
    it = balanced_batch_iter(pool, batch_size=10, seed=0)
    counts = {"cat": 0, "fox": 0}
    for _ in range(200):
        for j in next(it):
            counts[pool.labels[j]] += 1
    total = sum(counts.values())
    assert abs(counts["fox"] / total - 0.5) < 0.05  # ~uniform over classes
    with pytest.raises(ValueError, match="non-empty"):
        balanced_batch_iter(no_records(), 4, 0)
    with pytest.raises(ValueError, match=re.escape(
            "batch_size must be finite and in [1, inf), got 0")):
        balanced_batch_iter(pool, 0, 0)


@settings(max_examples=150, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=7),
       batch_size=st.integers(1, 24), seed=st.integers(0, 2**63 - 1),
       count=st.integers(1, 8), data=st.data())
@example(sizes=[1] * 6, batch_size=16, seed=3, count=4, data=None)  # a k=1 episode
def test_balanced_batches_draw_each_slot_from_its_class_pool(sizes, batch_size, seed, count,
                                                             data):
    labels = [f"c{c}" for c, n in enumerate(sizes) for _ in range(n)]
    if data is not None:
        labels = data.draw(st.permutations(labels))  # pools interleave across columns
    pool = FeatureSet([f"r{i}" for i in range(len(labels))], labels,
                      np.zeros((1, len(labels))))
    got, again = (balanced_batch_iter(pool, batch_size, seed) for _ in range(2))
    # the definition: one draw of every slot's class, then one of every slot's record
    pools = list(pool.label_columns().values())
    rng = np.random.default_rng([seed, training._STREAM_BALANCE])
    for _ in range(count):
        batch = next(got)
        assert batch.dtype == np.intp
        assert np.array_equal(batch, next(again))
        cls = rng.integers(0, len(pools), size=batch_size)
        rec = rng.integers(0, np.array([len(p) for p in pools])[cls])
        assert all(j in pools[c] for j, c in zip(batch, cls))
        assert np.array_equal(batch, [pools[c][r] for c, r in zip(cls, rec)])


# ---------------------------------------------------------------------------
# training phases


@pytest.fixture
def tiny_world():
    registry = ClassRegistry(base=("cat", "dog"), novel=("fox",))
    we = random_embeddings(registry, dim=6, seed=0)
    base_rows = registry.base_indices() + [registry.background_index]
    base_reg = ClassRegistry(base=("cat", "dog"))
    base_data = fake_records(["cat", "dog"], 8, 10, seed=10)
    novel_data = fake_records(["fox"], 4, 10, seed=11)
    return registry, base_reg, we, base_rows, base_data, novel_data


def test_base_train_rejects_novel_labels(tiny_world):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("ssp", registry, we)
    with pytest.raises(ValueError, match="out-of-phase label 'fox'"):
        base_train(head, concat(base_data, novel_data), TrainConfig(steps=2, seed=0))
    with pytest.raises(ValueError, match="at least one record"):
        base_train(head, no_records(), TrainConfig(steps=2))
    with pytest.raises(ValueError, match=re.escape(
            "base_train steps must be finite and in [1, inf), got None")):
        base_train(head, base_data, TrainConfig(steps=None))
    with pytest.raises(ValueError, match=re.escape(
            "base_train steps must be finite and in [1, inf), got 0")):
        base_train(head, base_data, TrainConfig(steps=0))
    with pytest.raises(ValueError, match=re.escape(
            "batch_size must be finite and in [1, inf), got 0")):
        base_train(head, base_data, TrainConfig(steps=2, batch_size=0))


def test_base_train_runs_and_loss_falls(tiny_world):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("ssp", base_reg, we.select_rows(base_rows))
    rows = head.params["we"].value.copy()
    result = base_train(head, base_data, TrainConfig(steps=60, batch_size=8, seed=0))
    assert len(result.trace) == 60
    # the embedding rows are a param no group names: the phase leaves them frozen and put
    assert "we" not in head.trainable_names()
    np.testing.assert_array_equal(head.params["we"].value, rows)
    early = np.mean([r.loss for r in result.trace[:10]])
    late = np.mean([r.loss for r in result.trace[-10:]])
    assert late < early
    # the base phase decays its lr at the milestones: steps 41 and 51 of 60
    assert [r.lr for r in result.trace] == [lr_at(0.02, DEFAULT_MILESTONES, i, 60)
                                            for i in range(60)]
    assert {r.lr for r in result.trace[40:50]} == {0.02 * 0.1}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_non_finite_trainable_param_stops_the_first_step_naming_it(tiny_world):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("ssp", base_reg, we.select_rows(base_rows))
    head.params["P"].value[0, 0] = np.nan
    with pytest.raises(FloatingPointError, match=r"^base_train: loss is nan at step 1 \(lr .*\); "
                       r"trainable parameter 'P' holds a non-finite value$"):
        base_train(head, base_data, TrainConfig(steps=5, batch_size=8, seed=0))


def test_default_finetune_groups_per_mode(tiny_world):
    registry, base_reg, we, base_rows, *_ = tiny_world
    we_base = we.select_rows(base_rows)
    assert default_finetune_groups(make_head("baseline", base_reg)) == ("W", "b")
    assert default_finetune_groups(make_head("ssp", base_reg, we_base)) == ("P", "b")
    assert default_finetune_groups(make_head("srr", base_reg, we_base)) == ("P", "relation", "b")
    heur = make_head("srr", base_reg, we_base, graph_mode="heuristic")
    assert default_finetune_groups(heur) == ("P", "b")  # fixed graph, no relation maps


def test_finetune_steps_rule(tiny_world):
    ep = Episode(base=no_records(), novel=fake_records(["fox"], 5, 4),
                 k=5, base_shots=0)
    assert finetune_steps_for(ep) == (300 * 5) // 25 == 60
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    episode = sample_episode(base_data, novel_data, k=1, base_shots=1)
    with pytest.raises(ValueError, match=re.escape(
            "finetune steps must be finite and in [1, inf), got 0")):
        finetune(make_head("ssp", registry, we), episode, finetune_config(steps=0))


def test_finetune_freezes_everything_outside_the_chosen_groups(tiny_world):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("ssp", registry, we)
    episode = sample_episode(base_data, novel_data, k=2, base_shots=3, seed=2)
    frozen_names = [n for n in head.params if n not in {"P", "b"}]
    before = {n: head.params[n].value.copy() for n in frozen_names}
    p_before = head.params["P"].value.copy()
    frozen_before = head.param_hash(frozen_names)
    result = finetune(head, episode, finetune_config(steps=8, batch_size=4, seed=2))
    assert result.frozen_hash == frozen_before == head.param_hash(frozen_names)
    assert {r.lr for r in result.trace} == {DEFAULT_FINETUNE_LR}  # no decay schedule
    for name, val in before.items():
        np.testing.assert_array_equal(head.params[name].value, val)
    assert not np.array_equal(head.params["P"].value, p_before)


def _nudging_sgd_step(monkeypatch, values):
    """Make every optimizer step also move the array ``values``."""
    real = training.sgd_step

    def step(*args):
        real(*args)
        values[0, 0] += 1e-12

    monkeypatch.setattr(training, "sgd_step", step)


def test_base_train_fails_when_a_deferred_relation_map_moves(tiny_world, monkeypatch):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("srr", base_reg, we.select_rows(base_rows))
    _nudging_sgd_step(monkeypatch, head.params["t_l"].value)
    with pytest.raises(RuntimeError, match="base_train: a frozen parameter moved"):
        base_train(head, base_data, TrainConfig(steps=3, batch_size=4, seed=1,
                                                trainable=("P", "b", "trunk", "reg")))


def test_base_train_fails_when_the_embedding_matrix_moves(tiny_world, monkeypatch):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("ssp", base_reg, we.select_rows(base_rows))
    _nudging_sgd_step(monkeypatch, head.params["we"].value)
    with pytest.raises(RuntimeError, match="base_train: a frozen parameter moved"):
        base_train(head, base_data, TrainConfig(steps=3, batch_size=4, seed=1))


def test_finetune_fails_when_a_frozen_trunk_weight_moves(tiny_world, monkeypatch):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("ssp", registry, we)
    episode = sample_episode(base_data, novel_data, k=2, base_shots=3, seed=2)
    _nudging_sgd_step(monkeypatch, head.params["trunk_w1"].value)
    with pytest.raises(RuntimeError, match="finetune: a frozen parameter moved"):
        finetune(head, episode, finetune_config(steps=3, batch_size=4, seed=2))


def test_finetune_fails_when_the_heuristic_graph_moves(tiny_world, monkeypatch):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("srr", registry, we, graph_mode="heuristic")
    head_module.attach_heuristic_graph(head, np.full((registry.n, registry.n), 1.0 / registry.n))
    episode = sample_episode(base_data, novel_data, k=2, base_shots=3, seed=2)
    _nudging_sgd_step(monkeypatch, head.params["g_heur"].value)
    with pytest.raises(RuntimeError, match="finetune: a frozen parameter moved"):
        finetune(head, episode, finetune_config(steps=3, batch_size=4, seed=2))


def test_a_phase_packs_trainable_values_into_one_block_and_leaves_frozen_ones_be(tiny_world):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("srr", registry, we)
    episode = sample_episode(base_data, novel_data, k=2, base_shots=2, seed=2)
    arrays = {name: p.value for name, p in head.params.items()}
    finetune(head, episode, finetune_config(steps=3, batch_size=4, seed=2))
    trainable = [p for p in head.params.values() if p.trainable]
    assert {p.name for p in trainable} == head.resolve_groups(("P", "relation", "b"))
    for name, p in head.params.items():
        if not p.trainable:
            assert p.value is arrays[name], f"frozen {name} got a new value array"
    block = trainable[0].value.base
    assert all(p.value.base is block and p.value.flags.c_contiguous for p in trainable)


def test_a_phase_with_nothing_trainable_moves_nothing(tiny_world):
    # what `finetune --trainable ''` asks for
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("srr", registry, we)
    episode = sample_episode(base_data, novel_data, k=2, base_shots=2, seed=2)
    arrays = {name: p.value for name, p in head.params.items()}
    before = head.param_hash()
    result = finetune(head, episode, finetune_config(steps=3, batch_size=4, seed=2,
                                                     trainable=()))
    assert head.trainable_names() == [] and len(result.trace) == 3
    assert all(np.isfinite(r.loss) for r in result.trace)
    assert head.param_hash() == before == result.frozen_hash
    assert all(p.value is arrays[name] for name, p in head.params.items())


def test_finetune_does_not_step_on_an_earlier_phases_gradient(tiny_world):
    # reg_w trains in both phases, but only the base phase has reg targets:
    # with no momentum or decay, a fine-tune that never touches it leaves it put
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("ssp", base_reg, we.select_rows(base_rows))
    base_train(head, base_data, TrainConfig(steps=4, batch_size=4, seed=1))
    head_module.expand_classes(head, registry, we)
    episode = sample_episode(base_data, novel_data, k=2, base_shots=2, seed=2)
    episode.base, episode.novel = (FeatureSet(list(s.ids), list(s.labels), s.feat, None)
                                   for s in (episode.base, episode.novel))
    reg_w = head.params["reg_w"].value.copy()
    result = finetune(head, episode, finetune_config(
        steps=3, batch_size=4, seed=2, momentum=0.0, weight_decay=0.0,
        trainable=("P", "b", "reg")))
    assert [r.loss_reg for r in result.trace] == [0.0] * 3
    np.testing.assert_array_equal(head.params["reg_w"].value, reg_w)


def test_each_param_keeps_one_gradient_buffer_across_phases(tiny_world):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("srr", registry, we)
    buffers = {name: p.grad for name, p in head.params.items()}
    base_train(head, base_data, TrainConfig(steps=3, batch_size=4, seed=1))
    episode = sample_episode(base_data, novel_data, k=2, base_shots=2, seed=2)
    finetune(head, episode, finetune_config(steps=3, batch_size=4, seed=2))
    for name, p in head.params.items():
        assert p.grad is buffers[name], f"{name} got a new gradient buffer"
        if not p.trainable:
            assert not p.grad.any(), f"frozen {name} kept an earlier phase's gradient"


def test_a_finetune_gives_frozen_params_no_gradient_buffer(tiny_world, monkeypatch):
    # trunk not cached (reg trains), relation maps and embedding rows frozen:
    # 9 frozen params, wrapped once when the step is recorded and rerun on
    # every later step
    registry, base_reg, we, *_ = tiny_world
    wraps, fresh = [], []
    real = Tape.param

    def param(tape, p):
        buffer = p.grad
        node = real(tape, p)
        if not p.trainable:
            wraps.append(p.name)
            fresh.append(node.grad is not None or p.grad is not buffer)
        return node

    monkeypatch.setattr(Tape, "param", param)
    buffers = {name: p.grad for name, p in make_head("srr", registry, we).params.items()}
    head, trace, _ = _srr_finetune(tiny_world, trainable=("P", "b", "reg"))
    assert len(wraps) == 9 and sum(fresh) == 0 and len(trace) == 12
    for name in wraps:  # zeroed at the phase start, never bound anew or accumulated into
        assert head.params[name].grad.shape == buffers[name].shape
        assert not head.params[name].grad.any()


def test_a_cached_trunk_srr_finetune_step_records_four_nodes(tiny_world, monkeypatch):
    # the relation stage, the P v product, the affine class scores, the loss end
    nodes = []
    real = training.batch_forward

    def counted(*args):
        result = real(*args)
        if args[-1] is None:  # the step that records
            nodes.append(len(result.loss.tape._ops))
        return result

    monkeypatch.setattr(training, "batch_forward", counted)
    _srr_finetune(tiny_world)
    assert nodes == [4]


def _count_trunk_halves(monkeypatch):
    calls = []
    real = head_module._trunk_half

    def counted(*args):
        calls.append(args[2].value.shape[1])
        return real(*args)

    monkeypatch.setattr(head_module, "_trunk_half", counted)
    return calls


def _srr_finetune(tiny_world, k=2, base_shots=3, **cfg):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("srr", registry, we)
    episode = sample_episode(base_data, novel_data, k=k, base_shots=base_shots, seed=4)
    result = finetune(head, episode, finetune_config(steps=12, batch_size=4, seed=4, **cfg))
    return head, [(r.loss, r.loss_cls, r.loss_reg) for r in result.trace], len(episode.base) + len(episode.novel)


def _phases(tiny_world, mode, graph_mode, decoupled, stage_in_base):
    """Trace rows and param hash after each of three phases: base training
    (the trunk trains), a default finetune (cached trunk) and a finetune
    that trains reg (uncached trunk, frozen).  Without ``stage_in_base`` an
    srr head base-trains as its projection head and its relation stage
    joins before the finetunes."""
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = (make_head(mode, registry, we, graph_mode=graph_mode) if stage_in_base
            else make_head("ssp", registry, we))
    if graph_mode == "heuristic":
        g = np.random.default_rng(5).random((registry.n, registry.n)) + np.eye(registry.n)
        head_module.attach_heuristic_graph(head, g / g.sum(axis=1, keepdims=True))
    if decoupled:
        head_module.decouple_trunks(head)
    episode = sample_episode(base_data, novel_data, k=2, base_shots=3, seed=4)
    out = [(base_train(head, base_data, TrainConfig(steps=6, batch_size=5, seed=2)).trace,
            head.param_hash())]
    if not stage_in_base:
        head_module.switch_graph_mode(head, graph_mode)
    for phase in (lambda: finetune(head, episode, finetune_config(steps=6, batch_size=4, seed=4)),
                  lambda: finetune(head, episode, finetune_config(
                      steps=6, batch_size=4, seed=5, trainable=("P" if mode != "baseline" else "W",
                                                                "b", "reg")))):
        out.append((phase().trace, head.param_hash()))
    return out


@pytest.mark.parametrize("decoupled", [False, True], ids=["shared", "decoupled"])
@pytest.mark.parametrize("mode,graph_mode,stage_in_base", [
    ("baseline", None, True), ("ssp", None, True), ("srr", "dynamic", True),
    ("srr", "dynamic", False), ("srr", "tt", True), ("srr", "heuristic", True),
])
def test_a_rerun_phase_matches_a_fresh_tape_per_step_bit_for_bit(
        tiny_world, monkeypatch, mode, graph_mode, stage_in_base, decoupled):
    reruns = []
    real_rerun = Tape.rerun
    with monkeypatch.context() as m:
        m.setattr(Tape, "rerun", lambda tape: reruns.append(1) or real_rerun(tape))
        replayed = _phases(tiny_world, mode, graph_mode, decoupled, stage_in_base)
    assert len(reruns) == 3 * 5  # every step after the first of each phase

    real = training.batch_forward

    def fresh_tape(*args):
        *args, recorded = args
        if recorded is not None:
            recorded.loss.tape.release()
        return real(*args)

    monkeypatch.setattr(training, "batch_forward", fresh_tape)
    assert _phases(tiny_world, mode, graph_mode, decoupled, stage_in_base) == replayed


@pytest.mark.parametrize("trainable", [None, ("P", "b", "reg")], ids=["cached", "uncached"])
def test_a_phase_leaves_nothing_for_the_cyclic_collector(tiny_world, trainable):
    # the recorded step's nodes hold its tape; the phase drops them at its end
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("srr", registry, we)
    episode = sample_episode(base_data, novel_data, k=2, base_shots=3, seed=4)
    gc.collect()
    gc.disable()
    try:
        base_train(head, base_data, TrainConfig(steps=4, batch_size=5))
        assert gc.collect() == 0
        finetune(head, episode, finetune_config(steps=4, batch_size=4, trainable=trainable))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_rerun_refuses_a_batch_of_another_width(tiny_world):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("ssp", registry, we)
    y = base_data.label_indices(registry)
    first = training.batch_forward(head, base_data, y, [0, 1, 2])
    with pytest.raises(ValueError, match="batch of 2 for a step recorded on 3 columns"):
        training.batch_forward(head, base_data, y, [0, 1], recorded=first)
    first.loss.tape.release()
    with pytest.raises(RuntimeError, match="only a Tape"):
        first.loss.tape.rerun()


def test_default_finetune_runs_the_trunk_half_once(tiny_world, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(training, "trunk_features", lambda head, data: None)
        ref_head, ref_trace, _ = _srr_finetune(tiny_world)
    calls = _count_trunk_halves(monkeypatch)
    head, trace, n = _srr_finetune(tiny_world)
    assert calls == [n]  # one pass over every column of the phase
    assert trace == ref_trace
    assert head.param_hash() == ref_head.param_hash()


@pytest.mark.parametrize("groups,moved", [
    (("P", "b", "trunk"), "trunk_w1"), (("P", "b", "reg"), "reg_w"),
])
def test_finetune_with_trunk_or_reg_trainable_runs_the_trunk_every_step(
        tiny_world, monkeypatch, groups, moved):
    # the trunk's relu runs once a step, on that step's batch of 4 columns
    registry, base_reg, we, *_ = tiny_world
    before = make_head("srr", registry, we).params[moved].value.copy()
    calls = _count_trunk_halves(monkeypatch)
    relus = []
    real = kernels.relu
    monkeypatch.setattr(kernels, "relu", lambda m: relus.append(m.copy()) or real(m))
    head, trace, _ = _srr_finetune(tiny_world, trainable=groups)
    assert calls == [4] and [m.shape[1] for m in relus] == [4] * 12
    assert len({m.tobytes() for m in relus}) == 12  # every step's batch is new
    assert not np.array_equal(head.params[moved].value, before)


def test_one_record_phase_caches_the_trunk_through_the_lone_column_path(
        tiny_world, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(training, "trunk_features", lambda head, data: None)
        ref_head, ref_trace, _ = _srr_finetune(tiny_world, k=1, base_shots=0)
    widths = []
    real = kernels.matmul
    monkeypatch.setattr(kernels, "matmul", lambda a, b: widths.append(b.shape[1]) or real(a, b))
    calls = _count_trunk_halves(monkeypatch)
    head, trace, n = _srr_finetune(tiny_world, k=1, base_shots=0)
    assert n == 1 and calls == [1]
    assert widths[:3] == [1, 1, 1]  # the cached pass: w1, w2 and reg_w on one column
    assert trace == ref_trace
    assert head.param_hash() == ref_head.param_hash()


def test_finetune_honors_explicit_trainable_groups(tiny_world):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("ssp", registry, we)
    episode = sample_episode(base_data, novel_data, k=1, base_shots=2, seed=3)
    cfg = finetune_config(steps=4, batch_size=4, seed=3, trainable=("b",))
    p_before = head.params["P"].value.copy()
    finetune(head, episode, cfg)
    np.testing.assert_array_equal(head.params["P"].value, p_before)
    with pytest.raises(ValueError, match="unknown parameter group"):
        finetune(head, episode, finetune_config(steps=2, trainable=("nope",)))


def test_finetune_rejects_labels_outside_registry(tiny_world):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("ssp", registry, we)
    episode = sample_episode(base_data, novel_data, k=1, base_shots=1)
    episode.novel.labels[0] = "zebra"
    with pytest.raises(KeyError, match="zebra"):
        finetune(head, episode, finetune_config(steps=1))


def test_base_train_resolves_each_distinct_label_once(tiny_world, monkeypatch):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("ssp", base_reg, we.select_rows(base_rows))
    calls = []
    index = ClassRegistry.index
    monkeypatch.setattr(ClassRegistry, "index",
                        lambda self, name: calls.append(name) or index(self, name))
    base_train(head, base_data, TrainConfig(steps=20, batch_size=8, seed=0))
    assert len(calls) <= len(set(base_data.labels)) == 2


def test_save_trace_csv_format(tmp_path, tiny_world):
    registry, base_reg, we, base_rows, base_data, novel_data = tiny_world
    head = make_head("ssp", base_reg, we.select_rows(base_rows))
    result = base_train(head, base_data, TrainConfig(steps=3, batch_size=4, seed=0))
    path = tmp_path / "trace.csv"
    save_trace_csv(path, result.trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,lr,loss,loss_cls,loss_reg"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == 0.02
