#!/usr/bin/env python3
"""Regenerate any table or figure of the paper from the command line.

This is the command-line front end to :mod:`repro.eval`.  Each experiment
trains its arms at the requested scale and prints the result next to the
values reported in the paper.

Run with::

    python examples/reproduce_paper.py --experiment table5
    python examples/reproduce_paper.py --experiment table7 --scale smoke
    python examples/reproduce_paper.py --experiment all --scale quick
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import argparse
import time

from repro.eval import ExperimentScale, run_experiment
from repro.eval import experiments as ex
from repro.eval.timing import format_table10, table10_timings

#: Experiment name -> (arms, view of one seed's results).
EXPERIMENTS = {
    "table5": (ex.TABLE5_ARMS, ex.format_baseline_table),
    "table6": (ex.TABLE6_ARMS, ex.format_baseline_table),
    "table7": (ex.TABLE7_ARMS, ex.format_table7),
    "table8": (ex.TABLE8_ARMS, ex.format_table8),
    "table9": (ex.TABLE9_ARMS, ex.format_table9),
    "figure3": (ex.FIGURE3_ARMS, ex.format_heatmaps),
    "figure4": (ex.FIGURE3_ARMS, ex.format_underestimation),
    "figure5": (ex.FIGURE5_ARMS, ex.format_heatmaps),
    "ablation-decoder": (ex.DECODER_ARMS, ex.format_decoder_ablation),
    "ablation-layernorm": (ex.LAYERNORM_ARMS, ex.format_layernorm_ablation),
    "ablation-edges": (ex.EDGE_ARMS, ex.format_edge_ablation),
    "ablation-readout": (ex.READOUT_ARMS, ex.format_readout_ablation),
}

SCALES = {
    "smoke": ExperimentScale.smoke,
    "quick": ExperimentScale.quick,
    "full": ExperimentScale.full,
}


def report(name: str, scale: ExperimentScale) -> str:
    """The text of one experiment at ``scale``."""
    if name == "table10":  # wall time of untrained models, not an accuracy
        return format_table10(table10_timings(scale))
    arms, view = EXPERIMENTS[name]
    return view(run_experiment(arms, scale)[scale.seed])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    names = sorted([*EXPERIMENTS, "table10"])
    parser.add_argument(
        "--experiment",
        default="table5",
        choices=names + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument("--scale", default="quick", choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    scale = SCALES[args.scale](seed=args.seed)
    for name in names if args.experiment == "all" else [args.experiment]:
        print(f"\n=== {name} ===")
        start = time.perf_counter()
        print(report(name, scale))
        print(f"({time.perf_counter() - start:.1f}s)")


if __name__ == "__main__":
    main()
