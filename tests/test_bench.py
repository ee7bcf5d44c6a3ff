"""Smoke test of the system benchmark in ``perfbench/``.

The tracer skips a name it cannot find instead of failing, so a rename in
``semshot`` would silently drop a per-layer metric. One traced repeat of the
``paired_k1`` workload must run clean, match its untraced re-run byte for
byte, wrap every name the benchmark expects and keep class-name lookups out
of the training steps.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_paired_k1_traced_run_is_correct_and_fully_wrapped():
    # --seconds must be positive; the window always runs at least one repeat
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "paired_k1",
         "--seed", "0", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    details_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert result["correct"] is True
    assert result["failed"] == 0
    details = json.loads(details_line)["detail"]
    assert details["traced_equals_untraced"] is True
    assert details["unwrapped"] == []
    # labels resolve once per phase and per evaluate call, never per step
    assert result["metrics"]["embeddings.registry_index_calls"]["value"] < 1000
