"""Criteria 7-9 of the acceptance suite over fresh blocks of seeds.

The tier-1 tests pin criteria 7, 8 and 9 to seeds 0-19 and assert on what
`block_stats` returns; this script prints the same statistics over other
seed blocks, one row per block:

- c7: mean novel accuracy at k=1 of baseline, ssp and srr (alpha 0.9), and
  the one-sided paired p-values p(ssp>baseline) and p(srr>=ssp) (each needs
  < 0.05);
- c8: p(ssp>baseline) at alpha 0 (needs > 0.05);
- c9: the mean base-accuracy drop of k=3 srr fine-tuning (limit 0.02).

Every cell of the bundled benchmark runs through ``run_cell``, seed by seed,
so the ssp cell and both srr cells of a seed finish from one base phase.

Run from the repository root:

    PYTHONPATH=src python scripts/criteria_blocks.py              # seeds 20-99
    PYTHONPATH=src python scripts/criteria_blocks.py --seeds 0:20 --block 20
"""

import argparse

import numpy as np

from semshot.evaluation import paired_onesided_pvalue
from semshot.pipeline import bundled_benchmark, run_cell

# name -> (mode, graph mode, alpha, k), in the order each seed runs them
_CELLS = {
    "baseline": ("baseline", None, 0.9, 1),
    "ssp": ("ssp", None, 0.9, 1),
    "srr": ("srr", "dynamic", 0.9, 1),
    "srr_k3": ("srr", "dynamic", 0.9, 3),
    "baseline_a0": ("baseline", None, 0.0, 1),
    "ssp_a0": ("ssp", None, 0.0, 1),
}


def block_stats(seeds) -> dict:
    """Criteria 7-9's statistics over ``seeds``."""
    runs = [(name, bundled_benchmark(mode=mode, graph_mode=graph_mode, alpha=alpha), k)
            for name, (mode, graph_mode, alpha, k) in _CELLS.items()]
    novel = {name: [] for name in _CELLS}
    before, after = [], []
    for seed in seeds:
        for name, cfg, k in runs:
            cell = run_cell(cfg, k, seed)
            novel[name].append(cell.novel_accuracy)
            if name == "srr_k3":
                before.append(cell.base_accuracy_before)
                after.append(cell.base_accuracy)
    base, ssp, srr, base_a0, ssp_a0 = (
        np.array(novel[name]) for name in ("baseline", "ssp", "srr", "baseline_a0", "ssp_a0"))
    return {
        "c7_baseline": base.mean(), "c7_ssp": ssp.mean(), "c7_srr": srr.mean(),
        "c7_p_ssp": paired_onesided_pvalue(ssp, base),
        "c7_p_srr": paired_onesided_pvalue(srr, ssp),
        "c8_baseline": base_a0.mean(), "c8_ssp": ssp_a0.mean(),
        "c8_p": paired_onesided_pvalue(ssp_a0, base_a0),
        "c9_before": np.mean(before), "c9_after": np.mean(after),
        "c9_drop": float(np.mean(before) - np.mean(after)),
    }


def format_row(first: int, last: int, stats: dict) -> str:
    return (f"| {first}–{last} | {stats['c7_baseline']:.4f} / {stats['c7_ssp']:.4f} / "
            f"{stats['c7_srr']:.4f} | {stats['c7_p_ssp']:.2e} | {stats['c7_p_srr']:.2e} | "
            f"{stats['c8_p']:.2f} | {stats['c9_drop']:.4f} |")


HEADER = ("| seeds | c7 novel@1 baseline / ssp / srr | c7 p(ssp>baseline) | c7 p(srr>=ssp) "
          "| c8 p (needs > 0.05) | c9 drop (limit 0.02) |\n|---|---|---|---|---|---|")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="20:100",
                        help="seed range start:stop, stop excluded (default 20:100)")
    parser.add_argument("--block", type=int, default=20, help="seeds per block (default 20)")
    args = parser.parse_args(argv)
    try:
        start, stop = (int(v) for v in args.seeds.split(":"))
    except ValueError:
        parser.error(f"--seeds must be a range start:stop of integers, got {args.seeds!r}")
    if args.block < 2 or start < 0 or stop - start < args.block:
        parser.error("--seeds must hold at least one block of at least 2 seeds")
    print(HEADER)
    for first in range(start, stop - args.block + 1, args.block):
        seeds = range(first, first + args.block)
        print(format_row(seeds[0], seeds[-1], block_stats(seeds)), flush=True)


if __name__ == "__main__":
    main()
