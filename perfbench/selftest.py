"""Short self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload for a few seconds with small models and asserts that
(1) every metric of ``BENCHMARK.json`` is emitted with its unit, (2) a
perturbed prediction fails the correctness check, and (3) the traced run's
per-layer self times sum to the untraced operation time within
``TRACE_TOLERANCE``.
"""

from __future__ import annotations

import importlib
import math
import unittest

from common import pin_environment

pin_environment()

import numpy as np  # noqa: E402

import bulk  # noqa: E402
import online  # noqa: E402
import train  # noqa: E402
from common import load_spec  # noqa: E402
from run import WORKLOADS, assemble  # noqa: E402

#: How far the traced run's summed self times may be from the untraced
#: operation time: tracing overhead plus run-to-run noise of short runs.
TRACE_TOLERANCE = 0.25
SHORT_SECONDS = 5.0
MODULES = {name: importlib.import_module(module) for name, module in WORKLOADS.items()}


class ShortRuns(unittest.TestCase):
    """Each workload, untraced and traced, for a few seconds."""

    @classmethod
    def setUpClass(cls) -> None:
        cls.spec = load_spec()
        cls.results = {
            (name, trace): module.run(1, SHORT_SECONDS, trace, short=True)
            for name, module in MODULES.items()
            for trace in (False, True)
        }

    def test_every_metric_is_emitted_with_its_unit(self) -> None:
        for (name, trace), result in self.results.items():
            with self.subTest(workload=name, trace=trace):
                self.assertEqual(result.failed, 0)
                metrics = assemble(self.spec, MODULES[name], result, trace)
                declared = self.spec["per_layer" if trace else "end_to_end"]
                self.assertEqual(list(metrics), [entry["name"] for entry in declared])
                for entry in declared:
                    emitted = metrics[entry["name"]]
                    self.assertEqual(emitted["unit"], entry["unit"])
                    self.assertTrue(math.isfinite(emitted["value"]))
                    if not trace:
                        self.assertGreater(emitted["value"], 0.0)

    def test_traced_self_times_sum_to_untraced_time(self) -> None:
        # online-zipf is left out: over a few seconds its mean latency
        # depends on whether a collector pause fell inside the window.
        for name in ("bulk-cold", "train-step"):
            metrics = self.results[(name, True)].metrics
            summed = sum(v for k, v in metrics.items() if k.startswith("self."))
            untraced = metrics["trace.untraced_op_ms"]
            with self.subTest(workload=name, summed=summed, untraced=untraced):
                self.assertLessEqual(abs(summed - untraced) / untraced, TRACE_TOLERANCE)


class Checks(unittest.TestCase):
    """The correctness checks reject wrong answers."""

    def test_bulk_tape_check_rejects_a_perturbed_prediction(self) -> None:
        source = bulk.FreshBlocks(seed=3)
        blocks = [bulk.BasicBlock.from_text(source.draw()) for _ in range(4)]
        for scope, family, dtype, tolerance in bulk.MODELS:
            model = bulk.create_model(family, small=True, inference_dtype=dtype)
            predictions = model.predict(blocks)
            with self.subTest(model=scope):
                self.assertEqual(bulk.tape_mismatches(model, blocks, predictions, tolerance), 0)
                perturbed = dict(predictions)
                task = model.tasks[0]
                perturbed[task] = predictions[task] * np.array([1.0, 1.0, 1.01, 1.0])
                self.assertEqual(bulk.tape_mismatches(model, blocks, perturbed, tolerance), 1)

    def test_online_reply_check_rejects_a_perturbed_prediction(self) -> None:
        model = online.build_model(online.service_config(1))
        texts = online.unique_block_texts(online.BlockGenerator(seed=3), 3)
        reply = {
            task: values.tolist()
            for task, values in model.predict(
                [online.BasicBlock.from_text(text) for text in texts]
            ).items()
        }
        self.assertEqual(online.reply_mismatches(model, texts, reply), 0)
        reply[model.tasks[-1]][1] *= 1.0 + 1e-6
        self.assertEqual(online.reply_mismatches(model, texts, reply), 1)

    def test_training_check_rejects_divergence(self) -> None:
        self.assertTrue(train.losses_ok([3.0, 2.0, 1.5, 1.0, 0.9]))
        self.assertFalse(train.losses_ok([1.0, 1.5, 2.0, 2.5, 3.0]))
        self.assertFalse(train.losses_ok([3.0, float("nan"), 1.0, 0.9, 0.8]))


if __name__ == "__main__":
    unittest.main()
