"""Acceptance suite: one test per shipped guarantee.

Run ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  Numeric criteria state their tolerance in the assertion; the
benchmark criteria (7-9) run the bundled 15-base / 5-novel synthetic
benchmark over 20 seeds through the exact code path ``semshot sweep`` uses
(``run_cell``), computed by ``block_stats`` in ``scripts/criteria_blocks.py``.
"""

import time

import numpy as np
import pytest

import semshot.cli as cli
from criteria_blocks import block_stats
from semshot import relation as rel
from semshot.cli import main as cli_main, run_gradcheck
from semshot.embeddings import ClassRegistry, EmbeddingMatrix, random_embeddings
from semshot.head import (
    HeadConfig,
    build_head,
    class_rows,
    class_scores,
    expand_classes,
    forward_pass,
    relation_graph,
)
from semshot.training import (
    DEFAULT_BASE_LR,
    DEFAULT_FINETUNE_LR,
    DEFAULT_MOMENTUM,
    DEFAULT_SHOT_LIST,
    DEFAULT_WEIGHT_DECAY,
    TrainConfig,
    finetune_config,
)
from semshot.wordnet import WordNetGraph, bundled_voc_manifest, emit_removal_list, hyponym_closure

SEEDS = range(20)


def _small_instance(seed=0, mode="ssp", graph_mode=None):
    registry = ClassRegistry(base=("b0", "b1", "b2"), novel=("n0", "n1"))
    we = random_embeddings(registry, dim=16, seed=seed)
    cfg = HeadConfig(mode=mode, graph_mode=graph_mode, d_in=10, d=8, r=4, seed=seed)
    return registry, we, build_head(cfg, registry, we)


# ---------------------------------------------------------------------------


def test_criterion_01_gradient_fidelity():
    """Analytic gradients match central differences to 1e-5 for every
    trainable parameter of all three head modes, in under ten seconds."""
    cfg = {o.key: o.default for o in cli.GRADCHECK_OPTS}
    start = time.monotonic()
    worst = {}
    for mode in ("baseline", "ssp", "srr"):
        report = run_gradcheck(mode, cli.GRADCHECK_SHAPE, cfg["seed"], cfg["eps"])
        worst[mode] = report.max_rel_err
        assert report.max_rel_err < 1e-5, (
            f"{mode}: max relative gradient error {report.max_rel_err:.3e} >= 1e-5"
        )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"gradient audit took {elapsed:.1f}s >= 10s"
    print(f"criterion 1: max rel err per mode {worst}, {elapsed:.2f}s")


def test_criterion_02_relation_stage_is_identity_at_init():
    """With the low-rank return map at zero (its initial state), the dynamic
    relation head scores every vector identically to the plain projection
    head: same seed, same projection, refinement adds exactly nothing."""
    registry, we, ssp = _small_instance(seed=3, mode="ssp")
    _, _, srr = _small_instance(seed=3, mode="srr")
    assert np.array_equal(ssp.params["P"].value, srr.params["P"].value)
    assert not srr.params["t_l"].value.any()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        v = rng.standard_normal((8, 1))
        diff = np.abs(class_scores(srr, v) - class_scores(ssp, v)).max()
        worst = max(worst, diff)
    assert worst < 1e-12, f"max |srr - ssp| = {worst:.3e} >= 1e-12"
    print(f"criterion 2: max |srr - ssp| over 1000 vectors = {worst:.3e}")


def test_criterion_03_composed_path_matches_expanded_algebra():
    """The composed forward (graph @ refined rows @ projected vector) equals
    the fully expanded expression G·We·Th·Tl·P·v + We·P·v + b to 1e-10."""
    worst = 0.0
    for i in range(100):
        registry, we, head = _small_instance(seed=i, mode="srr")
        rng = np.random.default_rng([i, 77])
        for name in ("t_f", "t_g", "t_h", "t_l"):
            head.params[name].value[:] = rng.normal(
                0.0, 0.5, head.params[name].value.shape
            )
        w = we.matrix
        tf, tg = head.params["t_f"].value, head.params["t_g"].value
        th, tl = head.params["t_h"].value, head.params["t_l"].value
        p, b = head.params["P"].value, head.params["b"].value

        scores = (w @ tf) @ (w @ tg).T / np.sqrt(tf.shape[1])
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        g = e / e.sum(axis=1, keepdims=True)
        v = rng.standard_normal((8, 1))
        want = (g @ w @ th @ tl @ (p @ v) + w @ (p @ v) + b).reshape(-1)

        got = class_scores(head, v)
        worst = max(worst, np.abs(got - want).max())
    assert worst < 1e-10, f"max composed-vs-expanded gap {worst:.3e} >= 1e-10"
    print(f"criterion 3: max gap over 100 instances = {worst:.3e}")


def test_criterion_04_graph_rows_stochastic_and_permutation_equivariant():
    """Extracted relation graphs are row-stochastic to 1e-12, and refining a
    row-permuted embedding matrix equals permuting the refined rows, bitwise.
    Both run through the dynamic head's own relation stage."""
    rng = np.random.default_rng(40)
    worst_rowsum = 0.0
    for i in range(20):
        n = int(rng.integers(3, 12))
        rows = rng.standard_normal((n, 12))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        registry = ClassRegistry(base=tuple(f"c{j}" for j in range(n - 1)))
        head = build_head(
            HeadConfig(mode="srr", d_in=10, d=8, r=4, seed=i), registry, EmbeddingMatrix(rows)
        )
        for name in ("t_f", "t_g", "t_h", "t_l"):
            p = head.params[name]
            p.value[:] = rng.normal(0.0, 0.6, p.value.shape)
        graph = relation_graph(head)
        worst_rowsum = max(worst_rowsum, np.abs(graph.sum(axis=1) - 1.0).max())
        refined = class_rows(head)
        for _ in range(5):  # 20 matrices x 5 permutations = 100 checks
            perm = rng.permutation(n)
            head.we = EmbeddingMatrix(rows[perm])
            assert np.array_equal(
                class_rows(head), refined[perm]
            ), "row permutation did not commute exactly with the relation stage"
    assert worst_rowsum < 1e-12, f"row sums off by {worst_rowsum:.3e} >= 1e-12"
    print(f"criterion 4: worst row-sum deviation {worst_rowsum:.3e}, "
          "100/100 permutations commuted bit-exactly")


def test_criterion_05_projection_head_expansion_leaves_base_scores_untouched():
    """Adding classes to a plain projection head cannot move base-class
    scores (each score is an isolated row dot product): bit-identical on 100
    random instances.  A dynamic-relation head is the documented exception —
    its attention renormalizes over the enlarged class set, so base scores
    shift; the test exhibits one such counterexample."""
    full = ClassRegistry(base=("b0", "b1", "b2"), novel=("n0", "n1"))
    base_only = ClassRegistry(base=full.base)
    keep = list(range(3)) + [full.background_index]
    for i in range(100):
        we_full = random_embeddings(full, dim=16, seed=i)
        head = build_head(
            HeadConfig(mode="ssp", d_in=10, d=8, r=4, seed=i),
            base_only, we_full.select_rows(keep),
        )
        v = np.random.default_rng([i, 5]).standard_normal((8, 1))
        before = class_scores(head, v)
        expand_classes(head, full, we_full)
        after = class_scores(head, v)
        assert np.array_equal(before[:3], after[:3]), f"instance {i}: base scores moved"
        assert np.array_equal(before[3], after[5])  # background row, now last

    # counterexample: the same expansion moves base scores under attention
    we_full = random_embeddings(full, dim=16, seed=7)
    srr = build_head(
        HeadConfig(mode="srr", graph_mode="dynamic", d_in=10, d=8, r=4, seed=7),
        base_only, we_full.select_rows(keep),
    )
    srr.params["t_l"].value[:] = np.random.default_rng(8).normal(0.0, 0.5, (4, 16))
    v = np.random.default_rng(9).standard_normal((8, 1))
    before = class_scores(srr, v)
    expand_classes(srr, full, we_full)
    after = class_scores(srr, v)
    shift = np.abs(after[:3] - before[:3]).max()
    assert shift > 1e-6, "expected attention renormalization to move base scores"
    print(f"criterion 5: 100/100 projection expansions bit-identical; "
          f"relation counterexample shifted a base score by {shift:.3e}")


def test_criterion_06_decoupled_regression_loss_cannot_touch_classifier():
    """With separate trunks, the regression loss gradient is exactly zero
    (not merely small) on every classification-side parameter."""
    registry = ClassRegistry(base=("b0", "b1", "b2"), novel=("n0", "n1"))
    we = random_embeddings(registry, dim=16, seed=0)
    head = build_head(
        HeadConfig(mode="ssp", d_in=10, d=8, r=4, seed=0, decoupled=True),
        registry, we,
    )
    rng = np.random.default_rng(6)
    for p in head.params.values():
        p.value[:] = rng.normal(0.0, 0.4, p.value.shape)
        p.trainable = True
    x = rng.standard_normal((10, 4))
    targets = rng.standard_normal((4, 4))
    result = forward_pass(head, x, labels=None, reg_targets=targets)
    result.loss.backward()

    cls_side = [n for n in head.params if n.startswith("cls_trunk_")] + ["P", "b"]
    for name in cls_side:
        g = head.params[name].grad
        assert np.all(g == 0.0), f"{name} received a nonzero regression gradient"
    for name in head.trunk_names("reg") + ["reg_w", "reg_b"]:
        assert np.any(head.params[name].grad != 0.0), f"{name} has no gradient"

    # contrast: with a shared trunk the same loss reaches the trunk weights
    shared = build_head(HeadConfig(mode="ssp", d_in=10, d=8, r=4, seed=0), registry, we)
    for p in shared.params.values():
        p.value[:] = rng.normal(0.0, 0.4, p.value.shape)
        p.trainable = True
    res = forward_pass(shared, x, labels=None, reg_targets=targets)
    res.loss.backward()
    assert np.any(shared.params["trunk_w1"].grad != 0.0)
    print("criterion 6: classifier-side gradients exactly zero under decoupling")


@pytest.fixture(scope="module")
def criteria():
    """Criteria 7-9's statistics over SEEDS, from the function that prints them
    for other seed blocks, and the seconds the whole computation took."""
    start = time.monotonic()
    stats = block_stats(SEEDS)
    return stats, time.monotonic() - start


def test_criterion_07_semantic_anchors_lift_one_shot_accuracy(criteria):
    """On the bundled benchmark (alpha=0.9, 20 seeds, k=1): anchoring novel
    rows at their class embeddings beats cold-start rows, and the dynamic
    relation stage does not fall behind the anchors alone — both one-sided
    paired tests at p < 0.05.  Direction only; criteria 7-9 together within
    five minutes."""
    stats, elapsed = criteria
    base, ssp, srr = stats["c7_baseline"], stats["c7_ssp"], stats["c7_srr"]
    p_ssp, p_srr = stats["c7_p_ssp"], stats["c7_p_srr"]
    line = (
        f"criterion 7: novel@k=1 baseline {base:.4f} ssp {ssp:.4f} "
        f"srr {srr:.4f}; p(ssp>baseline)={p_ssp:.2e} p(srr>=ssp)={p_srr:.2e}; "
        f"{elapsed:.1f}s"
    )
    print(line)
    assert ssp > base, line
    assert srr >= ssp, line
    assert p_ssp < 0.05, line
    assert p_srr < 0.05, line
    assert elapsed < 300.0, line


def test_criterion_08_no_advantage_without_semantic_signal(criteria):
    """Same experiment with the embedding-to-feature coupling dialed to zero:
    the anchors carry no information, so the projection head shows no
    significant advantage (p > 0.05 for superiority)."""
    stats, _ = criteria
    p = stats["c8_p"]
    line = (
        f"criterion 8: novel@k=1 at alpha=0 baseline {stats['c8_baseline']:.4f} "
        f"ssp {stats['c8_ssp']:.4f}; p(ssp>baseline)={p:.4f}"
    )
    print(line)
    assert p > 0.05, line


def test_criterion_09_base_accuracy_survives_finetuning(criteria):
    """k=3 fine-tuning on the bundled benchmark keeps mean base-class
    accuracy within 0.02 of its pre-expansion value (20 seeds)."""
    stats, _ = criteria
    drop = stats["c9_drop"]
    line = (
        f"criterion 9: base accuracy {stats['c9_before']:.4f} -> {stats['c9_after']:.4f}, "
        f"drop {drop:.4f} (limit 0.02)"
    )
    print(line)
    assert drop <= 0.02, line


def _random_reachability_case(rng, max_nodes=50):
    n = int(rng.integers(2, max_nodes + 1))
    ids = [f"n{i:08d}" for i in range(n)]
    adj = np.zeros((n, n), dtype=bool)
    for _ in range(int(rng.integers(1, 2 * n + 1))):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            adj[a, b] = True
    children = {
        ids[a]: tuple(ids[b] for b in np.flatnonzero(adj[a]))
        for a in range(n) if adj[a].any()
    }
    graph = WordNetGraph(nodes=frozenset(ids), children=children)
    return graph, ids, adj, n


def _oracle_reachable(adj, n):
    """Reachability by repeated boolean matrix squaring of (A | I)."""
    m = adj | np.eye(n, dtype=bool)
    steps = 1
    while steps < n:
        m = (m.astype(np.uint8) @ m.astype(np.uint8)) > 0
        steps *= 2
    return m


def test_criterion_10_closure_matches_oracle_and_golden_lines():
    """Reachability closure agrees with a brute-force boolean-powering oracle
    on 1000 random graphs; fixpoint/monotonicity/union laws hold on 500
    instances; the bundled removal manifest reproduces its four spot-check
    lines byte-exactly."""
    rng = np.random.default_rng(10)
    for _ in range(1000):
        graph, ids, adj, n = _random_reachability_case(rng)
        reach = _oracle_reachable(adj, n)
        roots_idx = rng.choice(n, size=min(n, int(rng.integers(1, 4))), replace=False)
        want = sorted({ids[j] for r in roots_idx for j in np.flatnonzero(reach[r])})
        got = hyponym_closure(graph, [ids[r] for r in roots_idx])
        assert got == want

    for _ in range(500):
        graph, ids, adj, n = _random_reachability_case(rng, max_nodes=20)
        a_idx = rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False)
        b_idx = rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False)
        a = [ids[i] for i in a_idx]
        b = [ids[i] for i in b_idx]
        ca = hyponym_closure(graph, a)
        assert hyponym_closure(graph, ca) == ca                  # fixpoint
        cab = hyponym_closure(graph, a + b)
        assert set(ca) <= set(cab)                               # monotone
        assert cab == sorted(set(ca) | set(hyponym_closure(graph, b)))  # union

    lines = emit_removal_list(bundled_voc_manifest(), "text").splitlines()
    for golden in (
        "cow: n02403003, n02408429, n02410509",
        "horse: n02389026, n02391049",
        "motorbike: n03785016, n03791053",
        "sofa: n04344873",
    ):
        assert golden in lines, f"missing golden line {golden!r}"
    print("criterion 10: 1000/1000 oracle matches, 500/500 law checks, 4/4 golden lines")


def test_criterion_11_sweep_runs_are_byte_deterministic(tmp_path):
    """Two sweep invocations with identical seeds write byte-identical CSVs."""
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main([
            "sweep", "--out-dir", str(out), "--mode", "ssp",
            "--shots", "1", "--seeds", "2",
            "--base-classes", "4", "--novel-classes", "2",
        ])
        assert code == 0
        outs.append(out)
    csv_a = (outs[0] / "sweep.csv").read_bytes()
    csv_b = (outs[1] / "sweep.csv").read_bytes()
    assert csv_a == csv_b, "sweep CSVs differ between identical runs"
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    print(f"criterion 11: {len(csv_a)} CSV bytes identical across runs")


def test_criterion_12_shipped_defaults_audit():
    """Module-level defaults: 300-d unit-row embeddings, reduced dim 32,
    SGD 0.02/0.9/0.0001, fine-tune lr 0.001, shot list {1,2,3,5,10}."""
    from semshot.embeddings import DEFAULT_EMBED_DIM

    assert DEFAULT_EMBED_DIM == 300
    reg = ClassRegistry(base=("a", "b"))
    we = random_embeddings(reg)
    assert we.dim == 300
    np.testing.assert_allclose(np.linalg.norm(we.matrix, axis=1), 1.0, atol=1e-12)

    assert rel.DEFAULT_REDUCED_DIM == 32
    assert HeadConfig(mode="ssp").r == 32

    tc = TrainConfig()
    assert (tc.lr, tc.momentum, tc.weight_decay) == (0.02, 0.9, 0.0001)
    assert (DEFAULT_BASE_LR, DEFAULT_MOMENTUM, DEFAULT_WEIGHT_DECAY) == (0.02, 0.9, 0.0001)
    assert DEFAULT_FINETUNE_LR == 0.001
    assert finetune_config().lr == 0.001
    assert DEFAULT_SHOT_LIST == (1, 2, 3, 5, 10)

    def flag_default(opts, flag):
        return next(o.default for o in opts if o.flag == flag)

    assert flag_default(cli.TRAIN_OPTS, "--lr") == 0.02
    assert flag_default(cli.TRAIN_OPTS, "--reduced-dim") == 32
    assert flag_default(cli.TRAIN_OPTS, "--embed-dim") == 300
    assert flag_default(cli.FINETUNE_OPTS, "--lr") == 0.001
    assert flag_default(cli.SWEEP_OPTS, "--shots") == "1,2,3,5,10"
    print("criterion 12: all shipped defaults match")
