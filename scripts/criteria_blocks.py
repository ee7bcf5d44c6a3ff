"""Criteria 7-9 of the acceptance suite over fresh blocks of seeds.

The tier-1 tests pin criteria 7, 8 and 9 to seeds 0-19.  This script runs the
same computations (the bundled benchmark, through ``train_base`` and
``finish_cell``) over other seed blocks and prints one row per block:

- c7: mean novel accuracy at k=1 of baseline, ssp and srr (alpha 0.9), and
  the one-sided paired p-values p(ssp>baseline) and p(srr>=ssp) (each needs
  < 0.05);
- c8: p(ssp>baseline) at alpha 0 (needs > 0.05);
- c9: the mean base-accuracy drop of k=3 srr fine-tuning (limit 0.02).

Run from the repository root:

    PYTHONPATH=src python scripts/criteria_blocks.py              # seeds 20-99
    PYTHONPATH=src python scripts/criteria_blocks.py --seeds 0:20 --block 20
"""

import argparse
import functools

import numpy as np

from semshot.evaluation import paired_onesided_pvalue
from semshot.pipeline import bundled_benchmark, finish_cell, train_base


def block_stats(seeds) -> dict:
    """Criteria 7-9's statistics over ``seeds``, computed as the tier-1 tests do."""
    ssp_cfg = bundled_benchmark(mode="ssp", alpha=0.9)
    ssp_base = functools.cache(lambda seed: train_base(ssp_cfg, seed))

    def novel(mode, graph_mode, alpha, k, base_of=None):
        cfg = bundled_benchmark(mode=mode, graph_mode=graph_mode, alpha=alpha)
        base_of = base_of or (lambda seed: train_base(cfg, seed))
        return np.array([finish_cell(base_of(s), cfg, k).novel_accuracy for s in seeds])

    base = novel("baseline", "none", 0.9, 1)
    ssp = novel("ssp", "none", 0.9, 1, ssp_base)
    srr = novel("srr", "dynamic", 0.9, 1, ssp_base)
    srr_cfg = bundled_benchmark(mode="srr", graph_mode="dynamic", alpha=0.9)
    cells = [finish_cell(ssp_base(s), srr_cfg, k=3) for s in seeds]
    return {
        "c7_baseline": base.mean(), "c7_ssp": ssp.mean(), "c7_srr": srr.mean(),
        "c7_p_ssp": paired_onesided_pvalue(ssp, base),
        "c7_p_srr": paired_onesided_pvalue(srr, ssp),
        "c8_p": paired_onesided_pvalue(novel("ssp", "none", 0.0, 1),
                                       novel("baseline", "none", 0.0, 1)),
        "c9_drop": float(np.mean([c.base_accuracy_before for c in cells])
                         - np.mean([c.base_accuracy for c in cells])),
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
