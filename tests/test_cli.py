"""End-to-end command-line workflows on a tiny corpus."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semshot import cli, pipeline
from semshot.cli import _COMMANDS, main
from semshot.embeddings import (ClassRegistry, Interval, compose_background_row, load_registry,
                                random_embeddings, save_registry)
from semshot.head import (HeadConfig, attach_heuristic_graph, build_head, head_state, load_head,
                          switch_graph_mode)
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


def _child_env(threads):
    """This environment with ``src`` on the path and OPENBLAS_NUM_THREADS
    set to ``threads``, or removed when it is None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}


@pytest.mark.parametrize("threads", [None, "2"])
def test_importing_semshot_starts_no_blas_thread_unless_asked(threads):
    code = ("import os, semshot, numpy; print(len(os.listdir('/proc/self/task')), "
            "os.environ['OPENBLAS_NUM_THREADS'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(threads), timeout=120)
    assert proc.returncode == 0, proc.stderr
    tasks, setting = proc.stdout.split()
    assert setting == (threads or "1")
    # a pool of its own would add threads; one the user asked for may (cores permitting)
    assert threads is not None or tasks == "1"


def test_the_blas_thread_count_changes_no_output_bit(tmp_path):
    # 300-d, as the benchmark's chain: the P gradient (300x16 . 16x64) is the
    # product most likely to be split across threads
    trees = {}
    for threads in ("1", "2"):
        root = tmp_path / threads
        root.mkdir()

        def command(*argv):
            proc = subprocess.run([sys.executable, "-m", "semshot.cli", *map(str, argv)],
                                  capture_output=True, text=True, cwd=root,
                                  env=_child_env(threads), timeout=300)
            assert proc.returncode == 0, proc.stderr

        command("synth", "--out-dir", "synth", "--seed", 3, "--embed-dim", 300)
        full = load_registry(root / "synth/registry.json")
        save_registry(ClassRegistry(base=full.base), root / "registry_base.json")
        command("train", "--out-dir", "train", "--seed", 3, "--mode", "srr",
                "--data", "synth/base_train.jsonl", "--registry", "registry_base.json",
                "--embeddings", "synth/embeddings.txt", "--steps", 40)
        command("finetune", "--out-dir", "finetune", "--seed", 3,
                "--checkpoint", "train/head.json", "--registry", "synth/registry.json",
                "--embeddings", "synth/embeddings.txt", "--base-data", "synth/base_train.jsonl",
                "--novel-data", "synth/novel_train.jsonl", "--k", 5, "--lr", 0.005,
                "--steps", 40)
        trees[threads] = {str(p.relative_to(root)): sha(p)
                          for p in sorted(root.rglob("*")) if p.is_file()}
    assert {"train/head.json", "train/trace.csv", "finetune/meta.json"} <= set(trees["1"])
    assert trees["2"] == trees["1"]


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


@st.composite
def _synth_flags(draw):
    """Synth flags that all take effect: only clustered embeddings read
    --clusters and --spread, and only the margin rule reads --margin-scale."""
    flags = draw(st.fixed_dictionaries(
        {
            "--seed": st.integers(0, 2**31 - 1),
            "--alpha": st.floats(0.0, 1.0),
            "--base-classes": st.integers(2, 4),
            "--novel-classes": st.integers(0, 3),
            "--embed-dim": st.integers(2, 8),
            "--feat-dim": st.integers(1, 8),
            "--train-per-class": st.integers(1, 3),
            "--test-per-class": st.integers(1, 2),
            "--embeddings": st.sampled_from(["clustered", "random"]),
        },
        optional={"--sigma": st.floats(0.01, 2.0)},
    ))
    if flags["--embeddings"] == "clustered":
        flags |= draw(st.fixed_dictionaries({"--clusters": st.integers(1, 3),
                                             "--spread": st.floats(0.0, 1.0)}))
    if "--sigma" not in flags:
        flags["--margin-scale"] = draw(st.floats(0.05, 2.0))
    return flags


@settings(max_examples=25, deadline=None)
@given(_synth_flags())
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
    assert run(*argv, "--out-dir", tmp_path / "out") == 1
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

    def relabeled(path, label):
        """``path``'s records with the second one's label set to ``label``."""
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[1]["label"] = label
        return "".join(json.dumps(r) + "\n" for r in records)

    def train(**swap):
        opts = {"--data": base, "--registry": corpus / "registry_base.json",
                "--embeddings": corpus / "embeddings.txt", **swap}
        return ["train", "--steps", 2, *[v for kv in opts.items() for v in kv]]

    def finetune(novel, **swap):
        opts = {"--checkpoint": trained / "head.json", "--registry": corpus / "registry.json",
                "--embeddings": corpus / "embeddings.txt", "--base-data": base,
                "--novel-data": novel, **swap}
        return ["finetune", *[v for kv in opts.items() for v in kv]]

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
    carried = switch_graph_mode(load_head(trained / "head.json"), "heuristic")
    attach_heuristic_graph(carried, np.eye(4))
    graph_edited = head_state(carried)
    graph_edited["params"]["g_heur"][0] = [0.0, 0.0, 1.0, 0.0]  # still row-stochastic
    no_registry = ["finetune", "--checkpoint", trained / "head.json", "--base-data", base,
                   "--novel-data", corpus / "novel_train.jsonl"]
    header, base00, base01, *rest = (corpus / "embeddings.txt").read_text().splitlines()
    zero_row = "\n".join([header, base00, "base01" + " 0" * int(header.split()[1]), *rest])
    unscaled_meta = json.loads((trained / "meta.json").read_text())
    unscaled_meta["config"]["scaled.attention"] = False
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
            f"{bad}: checkpoint parameter 'g_heur': expected shape (4, 4), "
            "found no such parameter"),
        # finite values whose class scores overflow
        "checkpoint_overflow_eval": (json.dumps(head_state(huge_p)), evaluate(bad, base),
                                     "class scores hold a non-finite value; all head parameters "
                                     "are finite; the largest is 'P' (|max| 1e+308)"),
        # a hand-edited P whose class scores stay finite: only the hash can tell
        "checkpoint_params_edited": (json.dumps(absurd_p), evaluate(bad, base),
                                     f"{bad}: checkpoint field 'param_hash' does not match "
                                     "'params'"),
        # a hand-edited heuristic graph: only the hash can tell
        "checkpoint_graph_edited": (json.dumps(graph_edited), evaluate(bad, base),
                                    f"{bad}: checkpoint field 'param_hash' does not match "
                                    "'params'"),
        # attention is always scaled; a head that computed another function must not
        # load, and only a v1 checkpoint could name that form
        "checkpoint_unscaled_attention": (checkpoint(format="semshot-head-v1",
                                                     scaled_attention=False),
                                          evaluate(bad, corpus / "test.jsonl"),
                                          f"{bad}: unrecognized checkpoint format "
                                          "'semshot-head-v1'"),
        "config_unscaled_attention": (json.dumps(unscaled_meta), train(**{"--config": bad}),
                                      f"{bad}: unknown config keys ['scaled.attention']"),
        "train_no_scaled_attention": ("", train() + ["--no-scaled-attention"],
                                      "unrecognized arguments: --no-scaled-attention"),
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
            json.dumps(head_state(carried)),
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
        # eval checks labels against the checkpoint's registry, which has no novel classes
        "unknown_class": ("", evaluate(trained / "head.json", corpus / "novel_train.jsonl"),
                          f"{corpus / 'novel_train.jsonl'}:1: unknown class 'novel00'"),
        "train_null_label": (relabeled(base, None), train(**{"--data": bad}),
                             f"{bad}:2: 'label' must be a JSON string, got null"),
        "train_unknown_label": (relabeled(base, "base99"), train(**{"--data": bad}),
                                f"{bad}:2: unknown class 'base99'"),
        # finetune checks labels against the expanded registry
        "finetune_unknown_label": (relabeled(corpus / "novel_train.jsonl", "novel99"),
                                   finetune(bad), f"{bad}:2: unknown class 'novel99'"),
        # each pool holds its own classes; the background may join the base pool
        "finetune_swapped_pools": (
            "", finetune(base, **{"--base-data": corpus / "novel_train.jsonl"}),
            f"--base-data {corpus / 'novel_train.jsonl'}:1: class 'novel00' is a novel class"),
        "finetune_base_records_in_the_novel_pool": (
            "", finetune(base), f"--novel-data {base}:1: class 'base00' is not a novel class"),
        "train_novel_record": (relabeled(base, "novel00"),
                               train(**{"--data": bad, "--registry": corpus / "registry.json"}),
                               f"--data {bad}:2: class 'novel00' is a novel class"),
        # same class count, so no --embeddings is read: the registry itself is at fault
        "finetune_registry_reordered": (
            '{"base": ["base01", "base00", "base02"]}',
            finetune(corpus / "novel_train.jsonl", **{"--registry": bad}),
            f"--registry {bad} must keep the same base classes"),
        "registry_empty_tokens": (
            '{"base": ["base00", "base01", "base02"], "tokens": {"base01": []}}',
            train(**{"--registry": bad}),
            f"{bad}: token override for class 'base01' lists no token"),
        "embeddings_zero_row": (zero_row, train(**{"--embeddings": bad}),
                                f"{bad}: cannot normalize zero rows ['base01']"),
        "empty_train_data": ("", train(**{"--data": bad}), f"{bad}: no records"),
        "empty_novel_data": ("\n", finetune(bad), f"{bad}: no records"),
        "empty_eval_data": ("", evaluate(trained / "head.json", bad), f"{bad}: no records"),
        "partial_reg": ("".join(json.dumps(r) + "\n" for r in partial), train(**{"--data": bad}),
                        f"{bad}:2: lacks 'reg' unlike the first record"),
        "nested_feat": ('{"id": "a", "label": "base00", "feat": [[1, 2], [3, 4]]}\n',
                        train(**{"--data": bad}),
                        f"{bad}:1: 'feat' must be a non-empty flat list of JSON numbers"),
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
        # the checkpoint's rows are 8-d
        "finetune_embeddings_of_another_dim": (
            "5 2\nbase00 1 0\nbase01 0 1\nbase02 1 1\nnovel00 1 2\nnovel01 2 1\n",
            finetune(corpus / "novel_train.jsonl", **{"--embeddings": bad}),
            "mode 'ssp' needs an embedding matrix of shape (6, 8) for the expanded registry, "
            "got shape (6, 2)"),
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
        "closure_root_not_in_the_graph": ("n00000001\tn00000002\n",
                                          ["closure", "--edges", bad, "--roots",
                                           "n00000001,n00000009"],
                                          f"--roots 'n00000009' is not a node of --edges {bad}"),
        # given flags that --golden would ignore
        "closure_golden_with_edges": (
            "", ["closure", "--golden", "--edges", bad.parent / "nonexistent.tsv"],
            "--golden emits the bundled manifest; --edges cannot take effect"),
        "closure_golden_with_roots": (
            "", ["closure", "--golden", "--roots", ""],
            "--golden emits the bundled manifest; --roots cannot take effect"),
        "closure_golden_with_edges_and_roots": (
            "", ["closure", "--golden", "--edges", bad.parent / "nonexistent.tsv",
                 "--roots", "n00000001"],
            "--golden emits the bundled manifest; --edges and --roots cannot take effect"),
        "closure_golden_with_class_name": (
            "", ["closure", "--golden", "--class-name", "cow"],
            "--golden emits the bundled manifest; --class-name cannot take effect"),
        "closure_golden_with_every_closure_flag": (
            "", ["closure", "--golden", "--class-name", "cow", "--roots", "n00000001",
                 "--edges", bad.parent / "nonexistent.tsv"],
            "--golden emits the bundled manifest; --edges, --roots and --class-name cannot "
            "take effect"),
        # flags that the path a command takes does not read
        "train_baseline_with_embeddings": (
            "", train(**{"--embeddings": bad.parent / "nonexistent.txt"}) + ["--mode", "baseline"],
            "a baseline head has no embedding rows; --embeddings cannot take effect"),
        "train_embedding_file_with_embed_dim": (
            "", train() + ["--embed-dim", 5],
            "an embedding file fixes the dimension; --embed-dim cannot take effect"),
        "finetune_embeddings_without_registry": (
            "", no_registry + ["--embeddings", bad.parent / "nonexistent.txt"],
            "the head gains no class; --embeddings cannot take effect"),
        "finetune_embed_seed_with_a_registry_that_adds_no_class": (
            "", finetune(corpus / "novel_train.jsonl", **{
                "--registry": corpus / "registry_base.json", "--embeddings": "random"})
            + ["--embed-seed", 5],
            "the head gains no class; --embed-seed cannot take effect"),
        "finetune_baseline_with_embeddings": (
            json.dumps(baseline), finetune(corpus / "novel_train.jsonl", **{"--checkpoint": bad}),
            "a baseline head has no embedding rows; --embeddings cannot take effect"),
        "finetune_embedding_file_with_embed_seed": (
            "", finetune(corpus / "novel_train.jsonl") + ["--embed-seed", 7],
            "expansion keeps the checkpoint's background row, not the file's; --embed-seed "
            "cannot take effect"),
        "synth_random_with_clusters_and_spread": (
            "", ["synth", "--embeddings", "random", "--clusters", 3, "--spread", 0.9],
            "--embeddings random draws no clusters; --clusters and --spread cannot take effect"),
        "synth_sigma_with_margin_scale": (
            "", ["synth", "--sigma", 0.1, "--margin-scale", 0.9],
            "--sigma sets the noise level; --margin-scale cannot take effect"),
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
    "checkpoint_overflow_eval", "checkpoint_params_edited", "checkpoint_unscaled_attention",
    "config_unscaled_attention", "train_no_scaled_attention", "export_correlate_baseline",
    "cooccurrence_json",
    "cooccurrence_labels", "cooccurrence_unknown_class", "finetune_cooccurrence_unknown_class",
    "cooccurrence_missing", "cooccurrence_on_a_non_heuristic_head",
    "cooccurrence_over_the_carried_graph", "config_top_level", "config_float_for_int",
    "config_string_for_bool", "sweep_shots_not_integers", "sweep_shots_empty",
    "sweep_shots_zero", "sweep_shots_negative", "sweep_seeds_zero", "sweep_base_classes_zero",
    "gradcheck_eps_zero", "gradcheck_eps_inf", "gradcheck_threshold_inf",
    "gradcheck_threshold_negative",
    "synth_novel_classes_negative", "synth_base_classes_zero", "train_random_embed_dim_zero",
    "train_random_embed_seed_negative", "train_seed_negative",
    "finetune_base_shots_negative", "config_base_shots_negative",
    "unknown_class", "train_null_label", "train_unknown_label", "finetune_unknown_label",
    "finetune_swapped_pools", "finetune_base_records_in_the_novel_pool", "train_novel_record",
    "finetune_registry_reordered", "registry_empty_tokens", "embeddings_zero_row",
    "empty_train_data", "empty_novel_data", "empty_eval_data", "partial_reg", "nested_feat",
    "batch_size_zero", "batch_size_negative", "lr_negative", "momentum_above_one",
    "weight_decay_negative", "reg_weight_nan",
    "trainable_unknown_group", "synth_sigma_negative", "synth_sigma_nan",
    "synth_margin_scale_negative", "synth_spread_negative", "closure_edges",
    "closure_roots_without_an_id", "closure_root_not_in_the_graph",
    "closure_golden_with_edges", "closure_golden_with_roots",
    "closure_golden_with_edges_and_roots", "closure_golden_with_class_name",
    "closure_golden_with_every_closure_flag", "train_baseline_with_embeddings",
    "train_embedding_file_with_embed_dim", "finetune_embeddings_without_registry",
    "finetune_embed_seed_with_a_registry_that_adds_no_class",
    "finetune_baseline_with_embeddings", "finetune_embedding_file_with_embed_seed",
    "synth_random_with_clusters_and_spread", "synth_sigma_with_margin_scale",
    "checkpoint_graph_edited", "finetune_embeddings_of_another_dim",
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


def test_eval_writes_null_for_a_group_with_no_records(corpus, trained, tmp_path):
    # train's checkpoint registers no novel class, so the novel group has nothing to average
    out = tmp_path / "scores"
    assert run("eval", "--out-dir", out, "--checkpoint", trained / "head.json",
               "--data", corpus / "base_train.jsonl") == 0

    def refuse(constant):  # NaN and +-Infinity are not JSON
        raise ValueError(f"metrics.json holds {constant}")

    metrics = json.loads((out / "metrics.json").read_text(), parse_constant=refuse)
    assert metrics["novel_accuracy"] is None
    assert 0.0 <= metrics["base_accuracy"] <= 1.0


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


def test_finetune_with_no_trainable_group_moves_nothing(corpus, trained, tmp_path):
    out = tmp_path / "frozen"
    code = run(
        "finetune", "--out-dir", out,
        "--checkpoint", trained / "head.json",
        "--registry", corpus / "registry.json",
        "--embeddings", corpus / "embeddings.txt",
        "--base-data", corpus / "base_train.jsonl",
        "--novel-data", corpus / "novel_train.jsonl",
        "--k", 1, "--steps", 2, "--trainable", "",
    )
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["run"]["trainable"] == []
    original = json.loads((trained / "head.json").read_text())
    frozen = json.loads((out / "head.json").read_text())
    # expansion inserts two bias and two embedding rows; everything else is bit-identical
    for name, values in original["params"].items():
        if name in ("b", "we"):
            assert frozen["params"][name][:3] == values[:3]      # base rows
            assert frozen["params"][name][-1] == values[-1]      # background row
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


@pytest.mark.parametrize("command", ["finetune", "eval"])
def test_meta_json_replays_finetune_and_eval_byte_for_byte(corpus, trained, tmp_path, command):
    first = tmp_path / "first"
    if command == "finetune":
        assert _finetune_full(corpus, trained / "head.json", first, "--graph-mode", "tt") == 0
    else:
        assert run("eval", "--out-dir", first, "--checkpoint", trained / "head.json",
                   "--data", corpus / "base_train.jsonl") == 0
    want = {p.name: sha(p) for p in first.iterdir()}
    replay = tmp_path / "replay"
    assert run(command, "--config", first / "meta.json", "--out-dir", replay) == 0
    assert {p.name: sha(p) for p in replay.iterdir() if p.name != "meta.json"} == {
        name: digest for name, digest in want.items() if name != "meta.json"}
    # into the original out dir, which meta.json names, so it comes out byte-identical too
    assert run(command, "--config", first / "meta.json", "--out-dir", first) == 0
    assert {p.name: sha(p) for p in first.iterdir()} == want


@pytest.mark.parametrize("graph_mode", ["dynamic", "tt"])
def test_train_with_the_stage_deferred_is_the_projection_heads_base_phase(
        corpus, tmp_path, graph_mode):
    srr, ssp = tmp_path / "srr", tmp_path / "ssp"
    assert _train(corpus, srr, "--graph-mode", graph_mode, "--seed", 2) == 0
    assert _train(corpus, ssp, "--seed", 2, mode="ssp") == 0
    assert sha(srr / "trace.csv") == sha(ssp / "trace.csv")
    state = json.loads((srr / "head.json").read_text())
    shared = json.loads((ssp / "head.json").read_text())["params"]
    for name, values in shared.items():
        assert state["params"][name] == values, name
    # the maps, which only the srr head has, stay at their init
    maps = init_maps(GraphMode(graph_mode), len(state["params"]["we"][0]), state["dims"]["r"],
                     seed=state["seed"], gain=state["attention_gain"])
    assert state["params"].keys() - shared.keys() == maps.keys()
    for name, p in maps.items():
        assert state["params"][name] == p.value.tolist(), name
    assert not np.any(state["params"]["t_l"])
    # meta.json records what the base phase trained: neither the maps nor the embedding rows
    trained = json.loads((srr / "meta.json").read_text())["run"]["trainable"]
    assert trained == json.loads((ssp / "meta.json").read_text())["run"]["trainable"]
    assert sorted(trained) == sorted(shared.keys() - {"we"})


def test_no_base_phase_trains_an_srr_head(corpus, tmp_path, monkeypatch):
    """Every relation stage joins after base training, so ``base_train`` is
    handed only baseline and ssp heads, by the pipeline and by ``train``."""
    seen = []

    def logging(real):
        def base_train(head, data, cfg):
            seen.append(head.mode.value)
            return real(head, data, cfg)
        return base_train

    for module in (pipeline, cli):
        monkeypatch.setattr(module, "base_train", logging(module.base_train))
    monkeypatch.setattr(pipeline, "_latest_base", None)  # no earlier base to reuse
    tiny = dict(n_base=4, n_novel=2, d_e=8, d_in=12, d=8, r=4, n_clusters=2, train_per_class=6,
                test_per_class=4, base_steps=5, finetune_steps=5, base_shots=3, batch_size=8)
    for mode, graph in (("baseline", None), ("ssp", None), ("srr", "dynamic"), ("srr", "tt"),
                        ("srr", "heuristic")):
        pipeline.run_cell(pipeline.bundled_benchmark(mode=mode, graph_mode=graph, **tiny), 1, 3)
    sets = tmp_path / "sets.jsonl"
    sets.write_text('{"labels": ["base00", "base01"]}\n')
    assert _train(corpus, tmp_path / "dynamic", "--graph-mode", "dynamic") == 0
    assert _train(corpus, tmp_path / "heur", "--graph-mode", "heuristic",
                  "--cooccurrence", sets) == 0
    assert seen == ["baseline", "ssp", "ssp", "ssp"]
    state = json.loads((tmp_path / "heur" / "head.json").read_text())
    assert (state["mode"], state["graph_mode"]) == ("srr", "heuristic")
    assert len(state["params"]["g_heur"]) == 4


def test_the_retired_base_phase_switch_is_ignored_in_a_checkpoint_and_refused_in_a_config(
        corpus, trained, tmp_path, capsys):
    key = "graph.in.base"  # the switch's config key; its checkpoint field is the snake_case form
    state = json.loads((trained / "head.json").read_text())
    state[key.replace(".", "_")] = False
    old = tmp_path / "old_head.json"
    old.write_text(json.dumps(state))
    assert load_head(old).param_hash() == load_head(trained / "head.json").param_hash()
    meta = json.loads((trained / "meta.json").read_text())
    meta["config"][key] = True
    config = tmp_path / "old_meta.json"
    config.write_text(json.dumps(meta))
    assert run("train", "--config", config, "--out-dir", tmp_path / "again") == 1
    assert capsys.readouterr().err == f"error: {config}: unknown config keys ['{key}']\n"


def test_a_v1_checkpoint_is_refused_naming_its_format(corpus, trained, tmp_path, capsys):
    # v1 kept the embedding rows in a top-level block with their own hash
    state = json.loads((trained / "head.json").read_text())
    rows = state["params"].pop("we")
    digest = hashlib.sha256(np.array(rows).tobytes()).hexdigest()
    state.update(format="semshot-head-v1", we={"matrix": rows, "hash": digest})
    old = tmp_path / "old_head.json"
    old.write_text(json.dumps(state, sort_keys=True) + "\n")
    assert run("eval", "--out-dir", tmp_path / "out", "--checkpoint", old,
               "--data", corpus / "test.jsonl") == 1
    assert capsys.readouterr().err == (f"error: {old}: unrecognized checkpoint format "
                                       "'semshot-head-v1'\n")


def test_a_v2_checkpoint_is_refused_naming_its_format(corpus, trained, tmp_path, capsys):
    # v2 also stored each parameter's trainable flag
    state = json.loads((trained / "head.json").read_text())
    state.update(format="semshot-head-v2",
                 trainable={name: name != "we" for name in state["params"]})
    old = tmp_path / "old_head.json"
    old.write_text(json.dumps(state, sort_keys=True) + "\n")
    assert run("eval", "--out-dir", tmp_path / "out", "--checkpoint", old,
               "--data", corpus / "test.jsonl") == 1
    assert capsys.readouterr().err == (f"error: {old}: unrecognized checkpoint format "
                                       "'semshot-head-v2'\n")


def test_synth_of_a_single_class_with_sigma_records_no_margin(tmp_path):
    out = tmp_path / "one"
    assert run("synth", "--out-dir", out, "--base-classes", 1, "--novel-classes", 0,
               "--sigma", 0.1, "--train-per-class", 2, "--test-per-class", 1) == 0
    assert json.loads((out / "meta.json").read_text())["run"] == {"sigma": 0.1,
                                                                  "min_margin": None}


# each deleted option: its command, its flag and a value it once took
_DELETED_OPTIONS = [
    ("train", "--background-seed", 0),
    ("finetune", "--background-seed", 0),
    ("finetune", "--embed-dim", 300),
    ("finetune", "--freeze", "all"),
    *[("gradcheck", flag, 1) for flag in ("--base-classes", "--novel-classes", "--embed-dim",
                                            "--proj-dim", "--reduced-dim", "--feat-dim", "--batch")],
]


@pytest.mark.parametrize("command,flag,value", [
    pytest.param(*case, id=f"{case[0]}{case[1]}") for case in _DELETED_OPTIONS])
def test_a_deleted_option_is_refused_as_a_flag_and_as_a_config_key(
        tmp_path, capsys, command, flag, value):
    assert run(command, flag, value) == 1
    assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} {value}\n"
    key = flag[2:].replace("-", ".")
    config = tmp_path / "old_meta.json"
    config.write_text(json.dumps({"command": command, "config": {key: value}}))
    assert run(command, "--config", config) == 1
    assert capsys.readouterr().err == f"error: {config}: unknown config keys ['{key}']\n"


def test_a_checkpoint_that_names_the_scaled_attention_form_loads_unchanged(corpus, tmp_path):
    assert _train(corpus, tmp_path / "srr") == 0
    state = json.loads((tmp_path / "srr" / "head.json").read_text())
    # v1 checkpoints named the attention form; a key v2 does not read stays unread
    old = tmp_path / "old_head.json"
    old.write_text(json.dumps({**state, "scaled_attention": True}))
    assert head_state(load_head(old)) == state


def test_a_class_spelled_two_ways_gets_k_shots_in_all(corpus, trained, tmp_path):
    # class names match case-insensitively; the episode samples per class,
    # not per spelling
    lines = (corpus / "novel_train.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for record in records[::2]:
        record["label"] = record["label"].upper()
    novel = tmp_path / "novel_mixed_case.jsonl"
    novel.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "ft"
    assert _finetune_full(corpus, trained / "head.json", out, "--novel-data", novel,
                          "--k", 1) == 0
    episode = json.loads((out / "episode.json").read_text())
    label = {r["id"]: r["label"].lower() for r in records}
    assert episode["k"] == 1
    assert sorted(label[i] for i in episode["ids"]["novel"]) == ["novel00", "novel01"]


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
    assert len(json.loads(checkpoint.read_text())["params"]["g_heur"]) == 4  # 3 base + bg

    out = tmp_path / "ft"
    assert _finetune_full(corpus, checkpoint, out, "--cooccurrence", full_sets) == 0
    g_heur = np.array(json.loads((out / "head.json").read_text())["params"]["g_heur"])
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
    we = json.loads((out / "head.json").read_text())["params"]["we"]
    drawn = random_embeddings(load_registry(corpus / "registry_base.json"), 6, 4).matrix
    assert we == drawn.tolist()  # 3 base rows + background, 6-d
    config = json.loads((out / "meta.json").read_text())["config"]
    assert (config["embeddings"], config["embed.dim"], config["embed.seed"]) == ("random", 6, 4)


def test_train_seeds_an_embedding_files_background_row_with_embed_seed(corpus, tmp_path):
    out = tmp_path / "file"
    assert _train(corpus, out, "--embed-seed", 4, mode="ssp") == 0
    we = json.loads((out / "head.json").read_text())["params"]["we"]
    assert we[-1] == compose_background_row(8, 4).tolist()


def test_finetune_draws_random_rows_at_the_checkpoints_embedding_dim(corpus, trained, tmp_path):
    out = tmp_path / "random"
    assert run("finetune", "--out-dir", out, "--checkpoint", trained / "head.json",
               "--registry", corpus / "registry.json", "--embeddings", "random",
               "--embed-seed", 3, "--base-data", corpus / "base_train.jsonl",
               "--novel-data", corpus / "novel_train.jsonl", "--k", 1, "--steps", 2) == 0
    we = json.loads((out / "head.json").read_text())["params"]["we"]
    assert [len(row) for row in we] == [8] * 6  # the corpus's rows are 8-d
    drawn = random_embeddings(load_registry(corpus / "registry.json"), 8, 3).matrix
    np.testing.assert_allclose(we[3:5], drawn[3:5])


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


def test_every_flag_the_readme_command_line_section_names_is_an_option():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    options = {"--config", "--help"}
    for _, opts, _ in _COMMANDS.values():
        for opt in opts:
            options |= {opt.flag, f"--no-{opt.flag[2:]}"} if opt.bool_flag else {opt.flag}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert named and not named - options, sorted(named - options)
