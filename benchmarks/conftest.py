"""Shared fixtures for the benchmark suite.

Each benchmark file reproduces one table or figure of the paper.  Several of
them analyse the *same* trained baseline models (Table 5, Figures 3 and 4 and
the decoder ablation), so those arms are trained once per benchmark session
here and shared.

All benchmarks run at :class:`repro.eval.ExperimentScale` "quick", which is
sized so the whole suite finishes in minutes on a laptop CPU.  Set the
environment variable ``REPRO_BENCH_STEPS`` / ``REPRO_BENCH_BLOCKS`` to scale
the runs up towards the paper's setup.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.eval import ExperimentScale, run_experiment
from repro.eval.experiments import TABLE5_ARMS


def _scale_from_environment() -> ExperimentScale:
    scale = ExperimentScale.quick()
    steps = os.environ.get("REPRO_BENCH_STEPS")
    blocks = os.environ.get("REPRO_BENCH_BLOCKS")
    if steps:
        scale = replace(scale, num_training_steps=int(steps))
    if blocks:
        scale = replace(
            scale,
            ithemal_dataset_size=int(blocks),
            bhive_dataset_size=max(int(blocks) // 5, 20),
        )
    return scale


@pytest.fixture(scope="session")
def quick_scale() -> ExperimentScale:
    """The experiment scale used by every benchmark."""
    return _scale_from_environment()


@pytest.fixture(scope="session")
def baseline_results(quick_scale):
    """Table 5's GRANITE, Ithemal+ and Ithemal trained on the Ithemal-like
    dataset, keyed by arm name.

    Used by the Table 5 benchmark and re-analysed by the Figure 3/4 and
    decoder-ablation benchmarks, so they are trained exactly once per session.
    """
    return run_experiment(TABLE5_ARMS, quick_scale)[quick_scale.seed]


def format_paper_comparison(title: str, rows) -> str:
    """Formats (label, measured, paper) rows for the benchmark reports."""
    lines = [title, f"{'':<34} {'measured':>12} {'paper':>12}"]
    for label, measured, paper_value in rows:
        paper_text = f"{paper_value:12.4f}" if paper_value is not None else f"{'n/a':>12}"
        lines.append(f"{label:<34} {measured:12.4f} {paper_text}")
    return "\n".join(lines)
