"""End-to-end command-line workflows on a tiny corpus."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semshot.cli import _COMMANDS, main
from semshot.embeddings import ClassRegistry, Interval, load_registry, save_registry
from semshot.head import HeadConfig, build_head, head_state, load_head
from semshot.pipeline import clustered_embeddings
from semshot.relation import GraphMode, init_maps

CHAIN = "n00000001\tn00000002\nn00000002\tn00000003\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    return main([str(a) for a in argv])


def test_startup_imports_no_scipy():
    # scipy.stats is most of a command's start-up time; only the paired test needs it
    code = ("import sys, semshot, semshot.cli, semshot.pipeline; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """synth output plus a base-only registry, shared by the workflow tests."""
    root = tmp_path_factory.mktemp("corpus")
    code = run(
        "synth", "--out-dir", root, "--seed", 5,
        "--base-classes", 3, "--novel-classes", 2,
        "--embed-dim", 8, "--feat-dim", 10, "--clusters", 2,
        "--train-per-class", 6, "--test-per-class", 3,
    )
    assert code == 0
    full = load_registry(root / "registry.json")
    save_registry(ClassRegistry(base=full.base), root / "registry_base.json")
    return root


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = run(
        "train", "--out-dir", out,
        "--data", corpus / "base_train.jsonl",
        "--registry", corpus / "registry_base.json",
        "--embeddings", corpus / "embeddings.txt",
        "--mode", "ssp", "--proj-dim", 8, "--reduced-dim", 4,
        "--steps", 12, "--batch-size", 8, "--seed", 1,
    )
    assert code == 0
    return out


def test_synth_outputs(corpus):
    meta = json.loads((corpus / "meta.json").read_text())
    assert meta["command"] == "synth"
    assert set(meta["outputs"]) == {
        "registry.json", "embeddings.txt", "base_train.jsonl",
        "novel_train.jsonl", "test.jsonl",
    }
    assert meta["run"]["sigma"] > 0
    base_lines = (corpus / "base_train.jsonl").read_text().splitlines()
    assert len(base_lines) == 3 * 6
    novel_lines = (corpus / "novel_train.jsonl").read_text().splitlines()
    assert len(novel_lines) == 2 * 6


def test_train_writes_checkpoint_and_trace(trained):
    meta = json.loads((trained / "meta.json").read_text())
    assert meta["command"] == "train"
    assert set(meta["outputs"]) == {"head.json", "trace.csv"}
    assert meta["config"]["mode"] == "ssp"
    trace = (trained / "trace.csv").read_text().splitlines()
    assert trace[0] == "step,lr,loss,loss_cls,loss_reg"
    assert len(trace) == 13


def test_meta_json_replays_a_run_byte_for_byte(corpus, trained, tmp_path):
    want = {name: sha(trained / name) for name in ("head.json", "trace.csv", "meta.json")}
    replay = tmp_path / "replay"
    code = run("train", "--config", trained / "meta.json", "--out-dir", replay)
    assert code == 0
    assert sha(replay / "head.json") == want["head.json"]
    assert sha(replay / "trace.csv") == want["trace.csv"]
    # into the original out dir, which already holds every file: meta.json
    # names the same out dir, so it comes out byte-identical too
    assert run("train", "--config", trained / "meta.json", "--out-dir", trained) == 0
    assert {p.name: sha(p) for p in trained.iterdir()} == want


_SYNTH_FLAGS = st.fixed_dictionaries(
    {
        "--seed": st.integers(0, 2**31 - 1),
        "--alpha": st.floats(0.0, 1.0),
        "--margin-scale": st.floats(0.05, 2.0),
        "--base-classes": st.integers(2, 4),
        "--novel-classes": st.integers(0, 3),
        "--embed-dim": st.integers(2, 8),
        "--feat-dim": st.integers(1, 8),
        "--train-per-class": st.integers(1, 3),
        "--test-per-class": st.integers(1, 2),
        "--embeddings": st.sampled_from(["clustered", "random"]),
        "--clusters": st.integers(1, 3),
        "--spread": st.floats(0.0, 1.0),
    },
    optional={"--sigma": st.floats(0.01, 2.0)},
)


@settings(max_examples=25, deadline=None)
@given(_SYNTH_FLAGS)
def test_meta_json_replay_reproduces_every_synth_output(flags):
    argv = [str(a) for pair in flags.items() for a in pair]
    with tempfile.TemporaryDirectory() as tmp:
        first, replay = Path(tmp) / "first", Path(tmp) / "replay"
        assert run("synth", "--out-dir", first, *argv) == 0
        assert run("synth", "--config", first / "meta.json", "--out-dir", replay) == 0
        want = json.loads((first / "meta.json").read_text())
        got = json.loads((replay / "meta.json").read_text())
        assert got["outputs"] == want["outputs"]
        assert {**got["config"], "out.dir": None} == {**want["config"], "out.dir": None}
        assert got["run"] == want["run"]
        for name, digest in want["outputs"].items():
            assert sha(replay / name) == digest


def test_flags_override_config_file(corpus, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": 7, "alpha": 0.5}))
    out = tmp_path / "out"
    code = run(
        "synth", "--config", cfg_file, "--out-dir", out, "--seed", 9,
        "--base-classes", 2, "--novel-classes", 1, "--embed-dim", 6,
        "--feat-dim", 8, "--train-per-class", 2, "--test-per-class", 1,
        "--clusters", 2,
    )
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["seed"] == 9        # flag beats file
    assert meta["config"]["alpha"] == 0.5     # file beats default


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"nope": 1}))
    code = run("synth", "--config", cfg_file, "--out-dir", tmp_path / "x")
    assert code == 1
    assert "unknown config keys ['nope']" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_diverging_training_exits_1_and_names_the_step(corpus, tmp_path, capsys):
    out = tmp_path / "diverged"
    code = run(
        "train", "--out-dir", out,
        "--data", corpus / "base_train.jsonl",
        "--registry", corpus / "registry_base.json",
        "--embeddings", corpus / "embeddings.txt",
        "--mode", "ssp", "--proj-dim", 8, "--steps", 12, "--batch-size", 8,
        "--seed", 1, "--lr", 50,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: base_train: loss is inf at step 5 (lr 50)")
    assert not (out / "head.json").exists()


def test_config_file_value_outside_choices_fails(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"embeddings": "bogus"}))
    out = tmp_path / "x"
    code = run("synth", "--config", cfg_file, "--out-dir", out)
    assert code == 1
    err = capsys.readouterr().err
    assert f"{cfg_file}: key 'embeddings' expects one of ['clustered', 'random'], got 'bogus'" in err
    assert not (out / "meta.json").exists()


def test_train_srr_with_graph_mode_none_fails(corpus, tmp_path, capsys):
    out = tmp_path / "srr_none"
    code = run(
        "train", "--out-dir", out,
        "--data", corpus / "base_train.jsonl",
        "--registry", corpus / "registry_base.json",
        "--embeddings", corpus / "embeddings.txt",
        "--mode", "srr", "--graph-mode", "none", "--steps", 2,
    )
    assert code == 1
    assert "graph mode 'none' conflicts with mode 'srr'" in capsys.readouterr().err
    assert not (out / "head.json").exists()


def test_sweep_rejects_graph_mode_without_relation_stage(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run("sweep", "--out-dir", out, "--mode", "ssp", "--graph-mode", "dynamic",
               "--shots", "1", "--seeds", 1)
    assert code == 1
    assert "graph mode 'dynamic' requires mode 'srr'" in capsys.readouterr().err
    assert not out.exists()


_NUMERIC_OPTS = [(command, opt) for command, (_, opts, _) in _COMMANDS.items()
                 for opt in opts if isinstance(opt.type, Interval)]


def _outside(bound):
    """The nearest values outside ``bound`` at each finite end, and NaN and
    inf for a float interval."""
    def step(x, to):
        return x + (1 if to > x else -1) if bound.kind is int else math.nextafter(x, to)

    values = [bound.lo if bound.ends[0] == "(" else step(bound.lo, -math.inf)]
    if math.isfinite(bound.hi):
        values.append(bound.hi if bound.ends[1] == ")" else step(bound.hi, math.inf))
    return [bound.kind(v) for v in values] + ([math.nan, math.inf] if bound.kind is float else [])


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_numeric_option_declares_an_interval_holding_its_default(command, capsys):
    assert run(command, "--help") == 0
    usage = " ".join(capsys.readouterr().out.split())
    for opt in _COMMANDS[command][1]:
        numeric = opt.type in (int, float) or (
            isinstance(opt.default, (int, float)) and not opt.bool_flag)
        assert isinstance(opt.type, Interval) or not numeric, opt.flag
        if isinstance(opt.type, Interval):
            if opt.default is not None:
                assert opt.type.check(opt.default, opt.flag) == opt.default
            entry = usage.split(f"{opt.flag} {opt.dest.upper()} ")[-1].split(" --")[0]
            assert entry.endswith(f"{opt.type.kind.__name__} in {opt.type}"), entry


@pytest.mark.parametrize("command,opt,value,given", [
    pytest.param(command, opt, value, given, id=f"{command}{opt.flag}={value!r}-{given}")
    for command, opt in _NUMERIC_OPTS for value in _outside(opt.type)
    for given in ("flag", "config")
])
def test_bad_number_names_its_flag_or_key(
        tmp_path, capsys, command, opt, value, given):
    # no required option is given: the bound check comes first, before any
    # input is read
    out = tmp_path / "out"
    if given == "flag":
        argv = [f"{opt.flag}={value!r}"]
        source = opt.flag
    else:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({opt.key: value}))
        argv = ["--config", cfg_file]
        source = f"{cfg_file}: key {opt.key!r}"
    assert run(command, *argv, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err == f"error: {source} must be finite and in {opt.type}, got {value}\n"
    assert not out.exists()


_CLUSTER_REGISTRY = ClassRegistry(base=("cat", "dog"), novel=("fox",))

# argv ending in one bad dimension flag and its value, the library field the
# flag sets, and the library call that checks that field
_BAD_DIMENSIONS = [
    (["train", "--mode", "srr", "--proj-dim", 0], "head dimension d", lambda v: HeadConfig(d=v)),
    (["train", "--mode", "srr", "--reduced-dim", 0], "head dimension r", lambda v: HeadConfig(r=v)),
    (["train", "--mode", "srr", "--reduced-dim", -3], "head dimension r",
     lambda v: HeadConfig(r=v)),
    (["gradcheck", "--proj-dim", 0], "head dimension d", lambda v: HeadConfig(d=v)),
    (["synth", "--clusters", 0], "n_clusters",
     lambda v: clustered_embeddings(_CLUSTER_REGISTRY, dim=4, n_clusters=v, spread=0.1, seed=0)),
]


@pytest.mark.parametrize("argv,field,check", [
    pytest.param(argv, field, check, id=f"argv{i}-{field} must be at least 1, got {argv[-1]}")
    for i, (argv, field, check) in enumerate(_BAD_DIMENSIONS)
])
def test_bad_dimensions_exit_1_naming_the_field(corpus, tmp_path, capsys, argv, field, check):
    flag, value = argv[-2:]
    if argv[0] == "train":
        argv = argv + ["--data", corpus / "base_train.jsonl",
                       "--registry", corpus / "registry_base.json",
                       "--embeddings", corpus / "embeddings.txt", "--steps", 2]
    if argv[0] != "gradcheck":
        argv = argv + ["--out-dir", tmp_path / "out"]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {flag} must be finite and in [1, inf), got {value}\n"
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # the library config behind the flag names its own field
    with pytest.raises(ValueError) as exc:
        check(value)
    assert str(exc.value) == f"{field} must be finite and in [1, inf), got {value}"


def test_missing_required_options_fail(capsys):
    assert run("train") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "missing required options" in err


_BAD_JSON = "Expecting property name enclosed in double quotes"


def _bad_input_cases(corpus, trained, bad):
    """Case name -> (content of ``bad``, argv, the expected error text)."""
    base = corpus / "base_train.jsonl"
    partial = [json.loads(line) for line in base.read_text().splitlines()]
    del partial[1]["reg"]

    def train(**swap):
        opts = {"--data": base, "--registry": corpus / "registry_base.json",
                "--embeddings": corpus / "embeddings.txt", **swap}
        return ["train", "--steps", 2, *[v for kv in opts.items() for v in kv]]

    def finetune(novel):
        return ["finetune", "--checkpoint", trained / "head.json",
                "--registry", corpus / "registry.json", "--embeddings", corpus / "embeddings.txt",
                "--base-data", base, "--novel-data", novel]

    def evaluate(checkpoint, data):
        return ["eval", "--checkpoint", checkpoint, "--data", data]

    def checkpoint(**swap):
        state = json.loads((trained / "head.json").read_text())
        state.update(swap)
        return json.dumps({k: v for k, v in state.items() if v is not None})

    nan_in_p = json.loads((trained / "head.json").read_text())
    nan_in_p["params"]["P"][0][0] = float("nan")
    nan_in_p = json.dumps(nan_in_p)
    huge_p = load_head(trained / "head.json")  # saved below with a matching param_hash
    huge_p.params["P"].value[:] = 1e308
    absurd_p = json.loads((trained / "head.json").read_text())
    absurd_p["params"]["P"] = [[1e300] * len(row) for row in absurd_p["params"]["P"]]
    heuristic = train(**{"--cooccurrence": bad}) + ["--mode", "srr", "--graph-mode", "heuristic"]
    unknown_in_line_3 = '{"labels": ["base00"]}\n\n{"labels": ["base01", "nosuch"]}\n'
    baseline = head_state(build_head(HeadConfig(mode="baseline", d_in=10, d=8),
                                     load_registry(corpus / "registry_base.json")))
    return {
        "config_json": ("{nope", ["synth", "--config", bad], f"{bad}: {_BAD_JSON}"),
        "registry_json": ("{nope", train(**{"--registry": bad}), f"{bad}: {_BAD_JSON}"),
        "registry_top_level": ('["base00"]', train(**{"--registry": bad}),
                               f"{bad}: registry must be a JSON object"),
        "registry_names": ('{"base": "cat"}', train(**{"--registry": bad}),
                           f"{bad}: registry 'base' must be a list of class names"),
        "checkpoint_json": ("{nope", evaluate(bad, corpus / "test.jsonl"), f"{bad}: {_BAD_JSON}"),
        "checkpoint_top_level": ("[]", evaluate(bad, corpus / "test.jsonl"),
                                 f"{bad}: unrecognized checkpoint format None"),
        "checkpoint_missing_field": (checkpoint(mode=None), evaluate(bad, corpus / "test.jsonl"),
                                     f"{bad}: checkpoint field 'mode' is missing"),
        "checkpoint_field_type": (checkpoint(dims=[8, 16, 4]), evaluate(bad, corpus / "test.jsonl"),
                                  f"{bad}: checkpoint field 'dims' must be an object, got a list"),
        "checkpoint_mode_value": (checkpoint(mode="bogus"), evaluate(bad, corpus / "test.jsonl"),
                                  f"{bad}: checkpoint field 'mode' must be one of baseline, "
                                  "ssp, srr, got 'bogus'"),
        "checkpoint_graph_mode_value": (
            checkpoint(graph_mode="bogus"), evaluate(bad, corpus / "test.jsonl"),
            f"{bad}: checkpoint field 'graph_mode' must be one of none, dynamic, heuristic, tt, "
            "got 'bogus'"),
        "checkpoint_nonfinite_eval": (nan_in_p, evaluate(bad, base),
                                      f"{bad}: checkpoint field 'params.P' must be a matrix of "
                                      "finite numbers"),
        "checkpoint_nonfinite_export": (nan_in_p, ["export", "correlate", "--checkpoint", bad],
                                        f"{bad}: checkpoint field 'params.P' must be a matrix "
                                        "of finite numbers"),
        # an ssp checkpoint with the heuristic stage and without its graph
        "checkpoint_heuristic_without_graph": (
            checkpoint(mode="srr", graph_mode="heuristic"), evaluate(bad, base),
            f"{bad}: checkpoint field 'g_heur' is missing"),
        # finite values whose class scores overflow
        "checkpoint_overflow_eval": (json.dumps(head_state(huge_p)), evaluate(bad, base),
                                     "class scores hold a non-finite value; all head parameters "
                                     "are finite; the largest is 'P' (|max| 1e+308)"),
        # a hand-edited P whose class scores stay finite: only the hash can tell
        "checkpoint_params_edited": (json.dumps(absurd_p), evaluate(bad, base),
                                     f"{bad}: checkpoint field 'param_hash' does not match "
                                     "'params'"),
        "export_correlate_baseline": (json.dumps(baseline),
                                      ["export", "correlate", "--checkpoint", bad],
                                      "baseline heads have no embedding rows to correlate"),
        "cooccurrence_json": ('{"labels": ["base00"]}\n{nope\n', heuristic,
                              f"{bad}:2: invalid JSON ({_BAD_JSON})"),
        "cooccurrence_labels": ('{"labels": "base00"}\n', heuristic,
                                f'{bad}:1: expected {{"labels": [class names]}}'),
        "cooccurrence_unknown_class": (unknown_in_line_3, heuristic,
                                       f"{bad}:3: unknown class 'nosuch'"),
        "finetune_cooccurrence_unknown_class": (
            unknown_in_line_3, finetune(corpus / "novel_train.jsonl")
            + ["--graph-mode", "heuristic", "--cooccurrence", bad],
            f"{bad}:3: unknown class 'nosuch'"),
        "cooccurrence_missing": ("", train() + ["--mode", "srr", "--graph-mode", "heuristic"],
                                 "heuristic graph mode needs --cooccurrence label sets"),
        # a given --cooccurrence that could not take effect
        "cooccurrence_on_a_non_heuristic_head": ('{"labels": ["base00"]}\n',
                                                 train(**{"--cooccurrence": bad})
                                                 + ["--mode", "ssp"],
                                                 "--cooccurrence needs graph mode heuristic, "
                                                 "the head's is none"),
        "cooccurrence_over_the_carried_graph": (
            checkpoint(mode="srr", graph_mode="heuristic", g_heur=np.eye(4).tolist()),
            ["finetune", "--checkpoint", bad, "--base-data", base, "--novel-data", base,
             "--cooccurrence", bad.parent / "does_not_exist.jsonl"],
            "--cooccurrence cannot replace the heuristic graph the head carries"),
        "config_top_level": ("[1]", ["synth", "--config", bad],
                             f"{bad}: config must be a JSON object"),
        "config_float_for_int": ('{"seed": 1.5}', ["synth", "--config", bad],
                                 f"{bad}: key 'seed' expects an integer"),
        "config_string_for_bool": ('{"decouple": "yes"}', train(**{"--config": bad}),
                                   f"{bad}: key 'decouple' expects true/false"),
        "sweep_shots_not_integers": ("", ["sweep", "--shots", "1,x"],
                                     "--shots must be a comma-separated integer list, got '1,x'"),
        "sweep_shots_empty": ("", ["sweep", "--shots", ","], "--shots is empty"),
        "sweep_shots_zero": ("", ["sweep", "--shots", "0"],
                             "--shots must be finite and in [1, inf), got 0"),
        "sweep_shots_negative": ("", ["sweep", "--shots", "1,-2"],
                                 "--shots must be finite and in [1, inf), got -2"),
        "sweep_seeds_zero": ("", ["sweep", "--seeds", 0],
                             "--seeds must be finite and in [1, inf), got 0"),
        "sweep_base_classes_zero": ("", ["sweep", "--base-classes", 0],
                                    "--base-classes must be finite and in [1, inf), got 0"),
        "gradcheck_base_classes_negative": ("", ["gradcheck", "--mode", "ssp",
                                                 "--base-classes", -1],
                                            "--base-classes must be finite and in [0, inf), "
                                            "got -1"),
        "gradcheck_novel_classes_negative": ("", ["gradcheck", "--mode", "ssp",
                                                  "--novel-classes", -3],
                                             "--novel-classes must be finite and in [0, inf), "
                                             "got -3"),
        "gradcheck_embed_dim_zero": ("", ["gradcheck", "--embed-dim", 0],
                                     "--embed-dim must be finite and in [1, inf), got 0"),
        "gradcheck_embed_dim_negative": ("", ["gradcheck", "--embed-dim", -2],
                                         "--embed-dim must be finite and in [1, inf), got -2"),
        "synth_novel_classes_negative": ("", ["synth", "--novel-classes", -1],
                                         "--novel-classes must be finite and in [0, inf), "
                                         "got -1"),
        "synth_base_classes_zero": ("", ["synth", "--base-classes", 0],
                                    "--base-classes must be finite and in [1, inf), got 0"),
        "train_random_embed_dim_zero": ("", train(**{"--embeddings": "random"})
                                        + ["--embed-dim", 0],
                                        "--embed-dim must be finite and in [1, inf), got 0"),
        "train_random_embed_seed_negative": ("", train(**{"--embeddings": "random"})
                                             + ["--embed-seed", -1],
                                             "--embed-seed must be finite and in [0, inf), "
                                             "got -1"),
        "train_seed_negative": ("", train() + ["--seed", -1],
                                "--seed must be finite and in [0, inf), got -1"),
        "train_background_seed_negative": ("", train() + ["--background-seed", -1],
                                           "--background-seed must be finite and in [0, inf), "
                                           "got -1"),
        "finetune_base_shots_negative": ("", finetune(corpus / "novel_train.jsonl")
                                         + ["--base-shots", -1],
                                         "--base-shots must be finite and in [0, inf), got -1"),
        "config_base_shots_negative": ('{"base.shots": -1}',
                                       finetune(corpus / "novel_train.jsonl") + ["--config", bad],
                                       f"{bad}: key 'base.shots' must be finite and in [0, inf), "
                                       "got -1"),
        "gradcheck_eps_zero": ("", ["gradcheck", "--eps", 0],
                               "--eps must be finite and in (0, inf), got 0.0"),
        "gradcheck_eps_inf": ("", ["gradcheck", "--eps", "inf"],
                              "--eps must be finite and in (0, inf), got inf"),
        "gradcheck_threshold_inf": ("", ["gradcheck", "--threshold", "inf"],
                                    "--threshold must be finite and in (0, inf), got inf"),
        "gradcheck_threshold_negative": ("", ["gradcheck", "--threshold", -1],
                                         "--threshold must be finite and in (0, inf), got -1.0"),
        "gradcheck_batch_zero": ("", ["gradcheck", "--batch", 0],
                                 "--batch must be finite and in [1, inf), got 0"),
        "gradcheck_batch_negative": ("", ["gradcheck", "--batch", -1],
                                     "--batch must be finite and in [1, inf), got -1"),
        "unknown_class": ("", evaluate(trained / "head.json", corpus / "novel_train.jsonl"),
                          "unknown class 'novel00'"),
        "empty_train_data": ("", train(**{"--data": bad}), f"{bad}: no records"),
        "empty_novel_data": ("\n", finetune(bad), f"{bad}: no records"),
        "empty_eval_data": ("", evaluate(trained / "head.json", bad), f"{bad}: no records"),
        "partial_reg": ("".join(json.dumps(r) + "\n" for r in partial), train(**{"--data": bad}),
                        f"{bad}:2: lacks 'reg' unlike the first record"),
        "batch_size_zero": ("", train() + ["--batch-size", 0],
                            "--batch-size must be finite and in [1, inf), got 0"),
        "batch_size_negative": ("", train() + ["--batch-size", -2],
                                "--batch-size must be finite and in [1, inf), got -2"),
        "lr_negative": ("", train() + ["--lr", -0.001],
                        "--lr must be finite and in (0, inf), got -0.001"),
        "momentum_above_one": ("", train() + ["--momentum", 1.5],
                               "--momentum must be finite and in [0, 1), got 1.5"),
        "weight_decay_negative": ("", train() + ["--weight-decay", -1],
                                  "--weight-decay must be finite and in [0, inf), got -1.0"),
        "reg_weight_nan": ("", train() + ["--reg-weight", "nan"],
                           "--reg-weight must be finite and in [0, inf), got nan"),
        "freeze_unknown_group": ("", finetune(corpus / "novel_train.jsonl") + ["--freeze", "bogus"],
                                 "unknown groups in --freeze: ['bogus']"),
        # checked before the (here empty) novel records load
        "trainable_unknown_group": ("\n", finetune(bad) + ["--trainable", "P,bogus"],
                                    "unknown groups in --trainable: ['bogus']"),
        "synth_sigma_negative": ("", ["synth", "--sigma", -1],
                                 "--sigma must be finite and in [0, inf), got -1.0"),
        "synth_sigma_nan": ("", ["synth", "--sigma", "nan"],
                            "--sigma must be finite and in [0, inf), got nan"),
        "synth_margin_scale_negative": ("", ["synth", "--margin-scale", -1],
                                        "--margin-scale must be finite and in [0, inf), "
                                        "got -1.0"),
        "synth_spread_negative": ("", ["synth", "--spread", -1],
                                  "--spread must be finite and in [0, inf), got -1.0"),
        "closure_edges": ("n00000001\tn00000002\nn00000002\tbogus\n",
                          ["closure", "--edges", bad, "--roots", "n00000001"],
                          f"{bad}: line 2: malformed synset id 'bogus'"),
        "closure_roots_without_an_id": ("n00000001\tn00000002\n",
                                        ["closure", "--edges", bad, "--roots", ","],
                                        "--roots holds no synset id, got ','"),
        # the corpus has 6 records a class; --base-shots defaults to --k
        "finetune_k_above_class_size": ("", finetune(corpus / "novel_train.jsonl")
                                        + ["--k", 50],
                                        "base class 'base00' has 6 records, needs 50 "
                                        "(--base-shots, which defaults to --k)"),
        "synth_single_class_without_sigma": ("", ["synth", "--base-classes", 1,
                                                  "--novel-classes", 0],
                                             "a single class has no margin to derive a noise "
                                             "level from; set --sigma"),
        "synth_seed_not_an_integer": ("", ["synth", "--seed", "abc"],
                                      "argument --seed: invalid int value: 'abc'"),
    }


@pytest.mark.parametrize("case", [
    "config_json", "registry_json", "registry_top_level", "registry_names", "checkpoint_json",
    "checkpoint_top_level", "checkpoint_missing_field", "checkpoint_field_type",
    "checkpoint_mode_value", "checkpoint_graph_mode_value", "checkpoint_nonfinite_eval",
    "checkpoint_nonfinite_export", "checkpoint_heuristic_without_graph",
    "checkpoint_overflow_eval", "checkpoint_params_edited", "export_correlate_baseline",
    "cooccurrence_json",
    "cooccurrence_labels", "cooccurrence_unknown_class", "finetune_cooccurrence_unknown_class",
    "cooccurrence_missing", "cooccurrence_on_a_non_heuristic_head",
    "cooccurrence_over_the_carried_graph", "config_top_level", "config_float_for_int",
    "config_string_for_bool", "sweep_shots_not_integers", "sweep_shots_empty",
    "sweep_shots_zero", "sweep_shots_negative", "sweep_seeds_zero", "sweep_base_classes_zero",
    "gradcheck_eps_zero", "gradcheck_eps_inf", "gradcheck_threshold_inf",
    "gradcheck_threshold_negative", "gradcheck_batch_zero", "gradcheck_batch_negative",
    "gradcheck_base_classes_negative", "gradcheck_novel_classes_negative",
    "gradcheck_embed_dim_zero", "gradcheck_embed_dim_negative",
    "synth_novel_classes_negative", "synth_base_classes_zero", "train_random_embed_dim_zero",
    "train_random_embed_seed_negative", "train_seed_negative", "train_background_seed_negative",
    "finetune_base_shots_negative", "config_base_shots_negative",
    "unknown_class", "empty_train_data", "empty_novel_data", "empty_eval_data", "partial_reg",
    "batch_size_zero", "batch_size_negative", "lr_negative", "momentum_above_one",
    "weight_decay_negative", "reg_weight_nan", "freeze_unknown_group",
    "trainable_unknown_group", "synth_sigma_negative", "synth_sigma_nan",
    "synth_margin_scale_negative", "synth_spread_negative", "closure_edges",
    "closure_roots_without_an_id",
    "finetune_k_above_class_size", "synth_single_class_without_sigma",
    "synth_seed_not_an_integer",
])
def test_bad_input_exits_1_with_one_error_line_naming_its_source(
        corpus, trained, tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    text, argv, message = _bad_input_cases(corpus, trained, bad)[case]
    bad.write_text(text)
    out = tmp_path / "out"
    # closure writes one file (--out) or stdout rather than a run directory
    assert run(*argv, *([] if argv[0] == "closure" else ["--out-dir", out])) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"error: {message}")
    assert not out.exists() and not list(tmp_path.glob(".out.*"))


def test_a_failure_after_a_staged_file_leaves_no_out_dir(corpus, tmp_path, capsys, monkeypatch):
    staged = []

    def disk_full(path, trace):
        staged.extend(sorted(os.listdir(path.parent)))
        raise OSError("disk full")

    monkeypatch.setattr("semshot.cli.save_trace_csv", disk_full)
    out = tmp_path / "out"
    assert run("train", "--out-dir", out, "--data", corpus / "base_train.jsonl",
               "--registry", corpus / "registry_base.json",
               "--embeddings", corpus / "embeddings.txt", "--steps", 2) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert staged == ["head.json"]
    assert not out.exists()
    assert list(tmp_path.glob(".out.*")) == []


def test_eval_prints_no_accuracy_when_its_files_cannot_be_moved_in(
        corpus, trained, tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError(f"cannot move {Path(src).name}")

    monkeypatch.setattr(os, "replace", refuse)
    assert run("eval", "--out-dir", tmp_path / "scores", "--checkpoint", trained / "head.json",
               "--data", corpus / "base_train.jsonl") == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: cannot move metrics.json\n"
    assert list(tmp_path.glob("**/.scores.*")) == []
    assert not (tmp_path / "scores").exists()


@pytest.mark.parametrize("existing", [False, True], ids=["made", "existing"])
def test_a_failed_move_takes_out_only_the_directories_the_run_made(
        corpus, trained, tmp_path, capsys, monkeypatch, existing):
    out = tmp_path / "runs" / "scores"
    if existing:
        out.mkdir(parents=True)
        (out / "keep.txt").write_text("kept")
    replace = os.replace

    def refuse_all_but_metrics(src, dst):
        if Path(src).name != "metrics.json":
            raise OSError(f"cannot move {Path(src).name}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_all_but_metrics)
    assert run("eval", "--out-dir", out, "--checkpoint", trained / "head.json",
               "--data", corpus / "base_train.jsonl") == 1
    assert capsys.readouterr().err == "error: cannot move confusion.csv\n"
    if existing:  # an out dir the run found keeps what was moved in
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt", "metrics.json"]
    else:  # the out dir and its missing parent go, metrics.json with them
        assert list(tmp_path.iterdir()) == []


def test_finetune_expands_and_freezes(corpus, trained, tmp_path, capsys):
    out = tmp_path / "ft"
    code = run(
        "finetune", "--out-dir", out,
        "--checkpoint", trained / "head.json",
        "--registry", corpus / "registry.json",
        "--embeddings", corpus / "embeddings.txt",
        "--base-data", corpus / "base_train.jsonl",
        "--novel-data", corpus / "novel_train.jsonl",
        "--k", 2, "--base-shots", 3, "--steps", 8, "--seed", 1,
    )
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert sorted(meta["run"]["trainable"]) == ["P", "b"]
    assert meta["run"]["steps"] == 8
    episode = json.loads((out / "episode.json").read_text())
    assert episode["k"] == 2
    assert len(episode["ids"]["novel"]) == 2 * 2

    scored = tmp_path / "eval"
    code = run("eval", "--out-dir", scored, "--checkpoint", out / "head.json",
               "--data", corpus / "test.jsonl")
    assert code == 0
    line = capsys.readouterr().out
    assert "overall" in line and "novel" in line
    metrics = json.loads((scored / "metrics.json").read_text())
    assert metrics["record_count"] == 5 * 3
    assert set(metrics["class_names"]) >= {"base00", "novel01"}
    confusion = (scored / "confusion.csv").read_text().splitlines()
    assert len(confusion) == 1 + 6  # header + 5 classes + background


@pytest.mark.parametrize("graph,trainable", [
    ("dynamic", ["P", "b", "t_f", "t_g", "t_h", "t_l"]),
    ("tt", ["P", "b", "t_h", "t_l"]),
])
def test_finetune_upgrades_ssp_checkpoint_to_relation_stage(
        corpus, trained, tmp_path, capsys, graph, trainable):
    out = tmp_path / f"ft_{graph}"
    code = run(
        "finetune", "--out-dir", out,
        "--checkpoint", trained / "head.json",
        "--registry", corpus / "registry.json",
        "--embeddings", corpus / "embeddings.txt",
        "--base-data", corpus / "base_train.jsonl",
        "--novel-data", corpus / "novel_train.jsonl",
        "--graph-mode", graph,
        "--k", 2, "--base-shots", 3, "--steps", 8, "--seed", 1,
    )
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["run"]["trainable"] == trainable
    head = json.loads((out / "head.json").read_text())
    assert (head["mode"], head["graph_mode"]) == ("srr", graph)

    exported = tmp_path / f"graph_{graph}"
    code = run("export", "graph", "--out-dir", exported, "--checkpoint", out / "head.json")
    if graph == "tt":
        assert code == 1
        assert "no relation graph to export" in capsys.readouterr().err
        return
    assert code == 0
    lines = (exported / "graph.csv").read_text().splitlines()
    assert len(lines) == 1 + 6  # header + 5 classes + background
    for line in lines[1:]:
        row = [float(v) for v in line.split(",")[1:]]
        assert sum(row) == pytest.approx(1.0, abs=1e-9)


def test_finetune_freeze_all_moves_nothing(corpus, trained, tmp_path):
    out = tmp_path / "frozen"
    code = run(
        "finetune", "--out-dir", out,
        "--checkpoint", trained / "head.json",
        "--registry", corpus / "registry.json",
        "--embeddings", corpus / "embeddings.txt",
        "--base-data", corpus / "base_train.jsonl",
        "--novel-data", corpus / "novel_train.jsonl",
        "--k", 1, "--steps", 2, "--freeze", "all",
    )
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["run"]["trainable"] == []
    original = json.loads((trained / "head.json").read_text())
    frozen = json.loads((out / "head.json").read_text())
    # expansion inserts two bias rows; everything else is bit-identical
    for name, values in original["params"].items():
        if name == "b":
            assert frozen["params"]["b"][:3] == values[:3]      # base rows
            assert frozen["params"]["b"][-1] == values[-1]      # background row
        else:
            assert frozen["params"][name] == values


def _finetune_full(corpus, checkpoint, out, *flags):
    return run(
        "finetune", "--out-dir", out, "--checkpoint", checkpoint,
        "--registry", corpus / "registry.json", "--embeddings", corpus / "embeddings.txt",
        "--base-data", corpus / "base_train.jsonl",
        "--novel-data", corpus / "novel_train.jsonl",
        "--k", 2, "--base-shots", 3, "--steps", 6, "--seed", 1, *flags,
    )


def _train(corpus, out, *flags, mode="srr"):
    return run(
        "train", "--out-dir", out,
        "--data", corpus / "base_train.jsonl",
        "--registry", corpus / "registry_base.json",
        "--embeddings", corpus / "embeddings.txt",
        "--mode", mode, "--proj-dim", 8, "--reduced-dim", 4,
        "--steps", 6, "--batch-size", 8, *flags,
    )


@pytest.mark.parametrize("graph_mode", ["dynamic", "tt"])
def test_train_with_the_stage_deferred_is_the_projection_heads_base_phase(
        corpus, tmp_path, graph_mode):
    srr, ssp = tmp_path / "srr", tmp_path / "ssp"
    assert _train(corpus, srr, "--graph-mode", graph_mode, "--no-graph-in-base",
                  "--seed", 2) == 0
    assert _train(corpus, ssp, "--seed", 2, mode="ssp") == 0
    assert sha(srr / "trace.csv") == sha(ssp / "trace.csv")
    state = json.loads((srr / "head.json").read_text())
    shared = json.loads((ssp / "head.json").read_text())["params"]
    for name, values in shared.items():
        assert state["params"][name] == values, name
    # the maps, which only the srr head has, stay at their init
    maps = init_maps(GraphMode(graph_mode), len(state["we"]["matrix"][0]), state["dims"]["r"],
                     seed=state["seed"], scaled=state["scaled_attention"],
                     gain=state["attention_gain"])
    assert state["params"].keys() - shared.keys() == maps.keys()
    for name, p in maps.items():
        assert state["params"][name] == p.value.tolist(), name
    assert not np.any(state["params"]["t_l"])


def test_finetune_freeze_relation_matches_trainable_projection_and_bias(corpus, tmp_path):
    assert _train(corpus, tmp_path / "srr") == 0
    checkpoint = tmp_path / "srr" / "head.json"
    assert _finetune_full(corpus, checkpoint, tmp_path / "freeze", "--freeze", "relation") == 0
    assert _finetune_full(corpus, checkpoint, tmp_path / "pick", "--trainable", "P,b") == 0
    meta = json.loads((tmp_path / "freeze" / "meta.json").read_text())
    assert meta["run"]["trainable"] == ["P", "b"]
    assert sha(tmp_path / "freeze" / "head.json") == sha(tmp_path / "pick" / "head.json")


def test_finetune_decouple_splits_the_trunk(corpus, trained, tmp_path):
    out = tmp_path / "decoupled"
    assert _finetune_full(corpus, trained / "head.json", out, "--decouple") == 0
    head = json.loads((out / "head.json").read_text())
    assert head["decoupled"] is True
    trunks = sorted(n for n in head["params"] if "trunk" in n)
    assert trunks == sorted(f"{branch}_trunk_{s}" for branch in ("cls", "reg")
                            for s in ("b1", "b2", "w1", "w2"))


def test_finetune_reattaches_the_heuristic_graph_after_expansion(corpus, tmp_path, capsys):
    base_sets, full_sets = tmp_path / "base_sets.jsonl", tmp_path / "full_sets.jsonl"
    base_sets.write_text('{"labels": ["base00", "base01"]}\n')
    full_sets.write_text('{"labels": ["base00", "novel00"]}\n{"labels": ["novel01"]}\n')
    assert _train(corpus, tmp_path / "heur", "--graph-mode", "heuristic",
                  "--cooccurrence", base_sets) == 0
    checkpoint = tmp_path / "heur" / "head.json"
    assert len(json.loads(checkpoint.read_text())["g_heur"]) == 4  # 3 base + background

    out = tmp_path / "ft"
    assert _finetune_full(corpus, checkpoint, out, "--cooccurrence", full_sets) == 0
    g_heur = np.array(json.loads((out / "head.json").read_text())["g_heur"])
    assert g_heur.shape == (6, 6)  # 3 base + 2 novel + background
    np.testing.assert_allclose(g_heur.sum(axis=1), 1.0)

    bare = tmp_path / "bare"
    assert _finetune_full(corpus, checkpoint, bare) == 1
    err = capsys.readouterr().err
    assert err == "error: heuristic graph mode needs --cooccurrence label sets\n"
    assert not bare.exists()


def test_export_correlate_is_zero_diff_for_untrained_projection(trained, tmp_path, corpus):
    # fine-tune adds novel rows first; correlate needs novel classes present
    ft = tmp_path / "ft"
    assert run(
        "finetune", "--out-dir", ft,
        "--checkpoint", trained / "head.json",
        "--registry", corpus / "registry.json",
        "--embeddings", corpus / "embeddings.txt",
        "--base-data", corpus / "base_train.jsonl",
        "--novel-data", corpus / "novel_train.jsonl",
        "--k", 1, "--steps", 2, "--seed", 0,
    ) == 0
    out = tmp_path / "corr"
    assert run("export", "correlate", "--out-dir", out,
               "--checkpoint", ft / "head.json") == 0
    diff = (out / "correlate_diff.csv").read_text().splitlines()
    # ssp heads use the embedding rows as-is, so before == after everywhere
    for line in diff[1:]:
        assert all(float(v) == 0.0 for v in line.split(",")[1:])


def test_export_graph_requires_a_relation_stage(trained, tmp_path, capsys, corpus):
    out = tmp_path / "graph"
    code = run("export", "graph", "--out-dir", out, "--checkpoint", trained / "head.json")
    assert code == 1
    assert "no relation graph to export" in capsys.readouterr().err
    assert not out.exists()

    srr_dir = tmp_path / "srr"
    assert _train(corpus, srr_dir) == 0
    assert run("export", "graph", "--out-dir", out,
               "--checkpoint", srr_dir / "head.json") == 0
    lines = (out / "graph.csv").read_text().splitlines()
    names = lines[0].split(",")[1:]
    assert len(names) == 4  # 3 base + background
    for line in lines[1:]:
        row = [float(v) for v in line.split(",")[1:]]
        assert sum(row) == pytest.approx(1.0, abs=1e-9)


def test_gradcheck_command_passes(capsys):
    assert run("gradcheck", "--mode", "ssp") == 0
    out = capsys.readouterr().out
    assert "ssp: max rel err" in out and "PASS" in out


def test_gradcheck_writes_its_report_and_meta(tmp_path):
    out = tmp_path / "runs" / "gc"  # the parents are made too, and no staging dir is left
    assert run("gradcheck", "--mode", "ssp", "--out-dir", out) == 0
    assert os.listdir(tmp_path) == ["runs"] and os.listdir(out.parent) == ["gc"]
    report = json.loads((out / "gradcheck.json").read_text())
    assert report["ssp"]["passed"] is True
    assert set(report["ssp"]["params"]) >= {"P", "b", "trunk_w1"}
    meta = json.loads((out / "meta.json").read_text())
    assert meta["command"] == "gradcheck"
    assert meta["outputs"] == {"gradcheck.json": sha(out / "gradcheck.json")}


def test_a_failing_gradcheck_exits_1_and_still_publishes_its_report(tmp_path, capsys):
    out = tmp_path / "gc"
    assert run("gradcheck", "--mode", "ssp", "--threshold", 1e-300, "--out-dir", out) == 1
    assert "FAIL" in capsys.readouterr().out
    assert json.loads((out / "gradcheck.json").read_text())["ssp"]["passed"] is False
    meta = json.loads((out / "meta.json").read_text())
    assert meta["outputs"] == {"gradcheck.json": sha(out / "gradcheck.json")}


def test_train_with_random_embeddings_records_their_seed(corpus, tmp_path):
    out = tmp_path / "random"
    assert run("train", "--out-dir", out, "--data", corpus / "base_train.jsonl",
               "--registry", corpus / "registry_base.json", "--embeddings", "random",
               "--embed-dim", 6, "--embed-seed", 4, "--proj-dim", 8, "--steps", 2) == 0
    we = json.loads((out / "head.json").read_text())["we"]
    assert len(we["matrix"]) == 4 and len(we["matrix"][0]) == 6  # 3 base + background
    assert we["provenance"] == ["random:seed=4"] * 3 + ["background:seed=4"]


def test_closure_golden_and_computed(tmp_path, capsys):
    assert run("closure", "--golden") == 0
    out = capsys.readouterr().out
    assert "cow: n02403003, n02408429, n02410509\n" in out
    assert "horse: n02389026, n02391049\n" in out

    edges = tmp_path / "edges.tsv"
    edges.write_text(CHAIN, encoding="utf-8")
    target = tmp_path / "closure.json"
    assert run("closure", "--edges", edges, "--roots", "n00000001",
               "--class-name", "animals", "--format", "json",
               "--out", target) == 0
    blob = json.loads(target.read_text())
    assert blob["classes"]["animals"] == ["n00000001", "n00000002", "n00000003"]
    assert blob["provenance"].startswith("computed:")


def test_closure_error_paths(tmp_path, capsys):
    edges = tmp_path / "edges.tsv"
    edges.write_text(CHAIN, encoding="utf-8")
    assert run("closure", "--edges", edges, "--roots", "n99999999") == 1
    assert "is not a node" in capsys.readouterr().err
    assert run("closure") == 1
    assert "needs --edges and --roots" in capsys.readouterr().err
    cyclic = tmp_path / "cyclic.tsv"
    cyclic.write_text(CHAIN + "n00000003\tn00000001\n", encoding="utf-8")
    assert run("closure", "--edges", cyclic, "--roots", "n00000002") == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "n00000001, n00000002, n00000003" in captured.out


def test_sweep_smoke(tmp_path):
    out = tmp_path / "sweep"
    code = run(
        "sweep", "--out-dir", out, "--mode", "ssp",
        "--shots", "1", "--seeds", 2,
        "--base-classes", 3, "--novel-classes", 2,
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "k,seed,base_accuracy_before,base_accuracy,novel_accuracy"
    assert len(lines) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["shots"] == [1] and summary["runs"] == 2
