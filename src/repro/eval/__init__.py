"""Experiment runner reproducing every table and figure of the paper.

Each experiment is a tuple of named :class:`Arm` s with a view in
``repro.eval.experiments``; :func:`run_experiment` trains the arms over
seeds.  Table 10 (``repro.eval.timing``) times untrained models instead.
"""

from repro.eval.harness import Arm, ArmResult, ExperimentHarness, ExperimentScale, run_experiment
from repro.eval.timing import TimingResult, measure_model_timing

__all__ = [
    "Arm",
    "ArmResult",
    "ExperimentHarness",
    "ExperimentScale",
    "run_experiment",
    "TimingResult",
    "measure_model_timing",
]
