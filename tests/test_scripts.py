"""Smoke tests of the scripts under ``scripts/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_pipeline import TINY, _counting_base_train

import criteria_blocks
from semshot import pipeline

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_criteria_blocks_prints_one_row_per_block():
    proc = _run_script("criteria_blocks.py", "--seeds", "0:2", "--block", "2")
    assert proc.returncode == 0, proc.stderr
    header, rule, row = proc.stdout.splitlines()
    assert header.startswith("| seeds | c7 novel@1") and rule.startswith("|---")
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[0] == "0–1"
    accuracies = [float(v) for v in cells[1].split(" / ")]
    p_values = [float(v) for v in cells[2:5]]
    assert len(accuracies) == 3 and all(0.0 <= v <= 1.0 for v in accuracies + p_values)
    assert re.fullmatch(r"-?\d\.\d{4}", cells[5])  # c9 drop


def test_block_stats_trains_four_base_phases_a_seed_in_seed_order(monkeypatch):
    # a criterion-outer loop over run_cell would train 6 per seed; seed-outer,
    # the ssp cell and both srr cells of a seed finish from one base phase
    monkeypatch.setattr(criteria_blocks, "bundled_benchmark",
                        lambda **kw: pipeline.bundled_benchmark(**kw, **TINY))
    monkeypatch.setattr(pipeline, "_latest_base", None)  # no earlier base to reuse
    calls = _counting_base_train(monkeypatch)
    criteria_blocks.block_stats(range(2))
    assert calls == [0] * 4 + [1] * 4


@pytest.mark.parametrize("seeds,message", [
    ("0:3", "--seeds must hold at least one block"),
    ("20", "--seeds must be a range start:stop of integers, got '20'"),
    ("a:b", "--seeds must be a range start:stop of integers, got 'a:b'"),
], ids=["short", "no_colon", "not_integers"])
def test_criteria_blocks_refuses_a_range_shorter_than_a_block(seeds, message):
    proc = _run_script("criteria_blocks.py", "--seeds", seeds, "--block", "4")
    assert proc.returncode == 2 and message in proc.stderr
    assert "Traceback" not in proc.stderr
