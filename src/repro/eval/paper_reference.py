"""Reference values reported in the paper.

Every experiment in :mod:`repro.eval` prints the paper's numbers next to the
reproduction's numbers (no checked-in report records both yet; ROADMAP item
4 plans one).  The constants here transcribe the tables of the paper
(arXiv:2210.03894v2) so the comparison is explicit and testable.

Absolute values are not expected to match — the reproduction trains far
smaller models for far fewer steps on synthetic data — but the *orderings*
(which model wins, which hyper-parameter is best) are asserted by the
benchmark suite.
"""

from __future__ import annotations

from typing import Dict, Tuple

__all__ = [
    "MICROARCHITECTURE_DISPLAY_NAMES",
    "TABLE5_MAPE",
    "TABLE6_MAPE",
    "TABLE7_MESSAGE_PASSING_MAPE",
    "TABLE8_MULTI_TASK_MAPE",
    "TABLE9_LOSS_MAPE",
    "TABLE10_RUNTIME_SECONDS",
    "DECODER_ABLATION_IMPROVEMENT",
    "LAYER_NORM_ABLATION_ERROR_INCREASE",
    "GRANITE_AVERAGE_TEST_ERROR",
]

#: Display names used in the paper's tables, keyed by the dataset keys used
#: throughout this repository.
MICROARCHITECTURE_DISPLAY_NAMES: Dict[str, str] = {
    "ivy_bridge": "Ivy Bridge",
    "haswell": "Haswell",
    "skylake": "Skylake",
}

#: Headline claim from the abstract / conclusion: average test error of the
#: multi-task GRANITE model across microarchitectures.
GRANITE_AVERAGE_TEST_ERROR = 0.069

#: Table 5 — MAPE when trained and tested on the Ithemal dataset.
#: TABLE5_MAPE[model][microarchitecture] is a fraction (0.0834 = 8.34 %).
TABLE5_MAPE: Dict[str, Dict[str, float]] = {
    "ithemal": {"ivy_bridge": 0.0834, "haswell": 0.0990, "skylake": 0.0830},
    "ithemal+": {"ivy_bridge": 0.0789, "haswell": 0.0882, "skylake": 0.0751},
    "granite": {"ivy_bridge": 0.0667, "haswell": 0.0761, "skylake": 0.0647},
}

#: Table 6 — MAPE when trained and tested on the BHive dataset.
TABLE6_MAPE: Dict[str, Dict[str, float]] = {
    "ithemal+": {"ivy_bridge": 0.0925, "haswell": 0.0919, "skylake": 0.0945},
    "granite": {"ivy_bridge": 0.0844, "haswell": 0.0841, "skylake": 0.0912},
}

#: Table 7 — GRANITE MAPE vs number of message passing iterations.
TABLE7_MESSAGE_PASSING_MAPE: Dict[str, Dict[int, float]] = {
    "ivy_bridge": {1: 0.0848, 2: 0.0785, 4: 0.0749, 8: 0.0667, 12: 0.0730},
    "haswell": {1: 0.0942, 2: 0.0909, 4: 0.0840, 8: 0.0761, 12: 0.0844},
    "skylake": {1: 0.0840, 2: 0.0747, 4: 0.0705, 8: 0.0647, 12: 0.0697},
}

#: Table 8 — single-task vs multi-task MAPE for each model.
#: TABLE8_MULTI_TASK_MAPE[model][microarchitecture] = (single, multi).
TABLE8_MULTI_TASK_MAPE: Dict[str, Dict[str, Tuple[float, float]]] = {
    "ithemal": {
        "ivy_bridge": (0.0834, 0.0882),
        "haswell": (0.0990, 0.0962),
        "skylake": (0.0830, 0.0877),
    },
    "ithemal+": {
        "ivy_bridge": (0.0837, 0.0789),
        "haswell": (0.0887, 0.0882),
        "skylake": (0.0765, 0.0751),
    },
    "granite": {
        "ivy_bridge": (0.0702, 0.0667),
        "haswell": (0.0776, 0.0782),
        "skylake": (0.0734, 0.0675),
    },
}

#: Table 9 — GRANITE MAPE by training loss function.
TABLE9_LOSS_MAPE: Dict[str, Dict[str, float]] = {
    "ivy_bridge": {
        "mape": 0.0749, "mse": 0.2494, "relative_mse": 0.0772,
        "huber": 0.1021, "relative_huber": 0.0834,
    },
    "haswell": {
        "mape": 0.0833, "mse": 0.2707, "relative_mse": 0.0888,
        "huber": 0.1151, "relative_huber": 0.0944,
    },
    "skylake": {
        "mape": 0.0732, "mse": 0.2678, "relative_mse": 0.0731,
        "huber": 0.0954, "relative_huber": 0.0793,
    },
}

#: Table 10 — run time per batch of 100 blocks, in seconds, on the paper's
#: RTX 2080 Ti workstation.  Keys: (model, mode) -> value; modes are
#: "gpu_training", "gpu_inference", "cpu_inference".  Values are averaged
#: over the three microarchitectures for the single-task rows.
TABLE10_RUNTIME_SECONDS: Dict[Tuple[str, str], float] = {
    ("ithemal_single", "gpu_training"): 0.1002,
    ("ithemal_single", "gpu_inference"): 0.0498,
    ("ithemal_single", "cpu_inference"): 0.0555,
    ("granite_single", "gpu_training"): 0.0357,
    ("granite_single", "gpu_inference"): 0.0147,
    ("granite_single", "cpu_inference"): 0.0750,
    ("ithemal+_multi", "gpu_training"): 0.1086,
    ("ithemal+_multi", "gpu_inference"): 0.0515,
    ("ithemal+_multi", "cpu_inference"): 0.0602,
    ("granite_multi", "gpu_training"): 0.0361,
    ("granite_multi", "gpu_inference"): 0.0157,
    ("granite_multi", "cpu_inference"): 0.0768,
}

#: Section 5.2 — adding the MLP decoder to Ithemal improves its MAPE by
#: these amounts (fractions of a percent converted to fractions).
DECODER_ABLATION_IMPROVEMENT: Dict[str, float] = {
    "ivy_bridge": 0.0025,
    "haswell": 0.0039,
    "skylake": 0.0110,
}

#: Section 5.2 — removing layer normalisation increases the test error by
#: these absolute amounts (15.19 percentage points on Ivy Bridge, etc.).
LAYER_NORM_ABLATION_ERROR_INCREASE: Dict[str, float] = {
    "ivy_bridge": 0.1519,
    "haswell": 0.1287,
    "skylake": 0.1227,
}
