"""Smoke tests of the experiment runner and of every table, figure and
ablation view (repro.eval.harness, repro.eval.experiments, repro.eval.timing).

These run at the tiny "smoke" scale: the goal is to verify the plumbing
(training, stored predictions, views, formatting), not the quality of the
results — that is what the benchmark suite under ``benchmarks/`` checks at
the larger "quick" scale.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.datasets import TARGET_MICROARCHITECTURES, build_bhive_like_dataset
from repro.eval import Arm, ExperimentHarness, ExperimentScale, run_experiment
from repro.eval.experiments import (
    DECODER_ARMS,
    EDGE_ARMS,
    FIGURE3_ARMS,
    FIGURE5_ARMS,
    LAYERNORM_ARMS,
    READOUT_ARMS,
    TABLE5_ARMS,
    TABLE6_ARMS,
    TABLE7_ARMS,
    TABLE8_ARMS,
    TABLE9_ARMS,
    diagonal_mass,
    format_baseline_table,
    format_decoder_ablation,
    format_edge_ablation,
    format_heatmaps,
    format_layernorm_ablation,
    format_readout_ablation,
    format_table7,
    format_table8,
    format_table9,
    format_underestimation,
    heatmap,
    loss_columns,
    mape_delta,
    multitask_mape,
    render_heatmap_ascii,
    underestimation,
)
from repro.eval.timing import format_table10, measure_model_timing, table10_timings
from repro.models import create_model
from repro.training.metrics import compute_metrics, relative_error_histogram
from repro.training.trainer import evaluate_model

SMOKE = ExperimentScale.smoke()
MICROARCHITECTURES = set(TARGET_MICROARCHITECTURES)


def run(arms):
    return run_experiment(arms, SMOKE)[SMOKE.seed]


class TestRunner:
    ARMS = (
        Arm("granite", "granite"),
        Arm("ithemal+-haswell", "ithemal+", dataset="bhive", tasks=("haswell",)),
    )

    @pytest.fixture(scope="class")
    def runs(self):
        return run_experiment(self.ARMS, SMOKE, seeds=(0, 1))

    def test_every_seed_and_arm_keeps_per_block_test_predictions(self, runs):
        assert list(runs) == [0, 1]
        for seed, results in runs.items():
            assert list(results) == [arm.name for arm in self.ARMS]
            harness = ExperimentHarness(replace(SMOKE, seed=seed))
            for result in results.values():
                test = harness.splits(result.arm.dataset).test
                assert set(result.predictions) == set(result.arm.tasks)
                for task in result.arm.tasks:
                    assert len(result.predictions[task]) == len(test)
                    np.testing.assert_array_equal(result.labels[task], test.throughputs(task))
        # Each seed draws its own datasets.
        assert not np.array_equal(
            runs[0]["granite"].labels["haswell"], runs[1]["granite"].labels["haswell"]
        )

    def test_the_same_seed_gives_identical_predictions(self, runs):
        again = run_experiment(self.ARMS, SMOKE, seeds=(1,))[1]
        for name, result in again.items():
            for task, predicted in result.predictions.items():
                np.testing.assert_array_equal(predicted, runs[1][name].predictions[task])
            assert result.history.diverged() == runs[1][name].history.diverged()

    def test_views_read_the_stored_predictions(self, runs):
        granite, ithemal = runs[0]["granite"], runs[0]["ithemal+-haswell"]

        def stored_mape(result, task):
            return compute_metrics(result.predictions[task], result.labels[task]).mape

        expected = stored_mape(granite, "haswell")
        assert granite.mape("haswell") == expected
        assert f"{expected * 100:7.2f}%" in format_baseline_table({"granite": granite})
        assert mape_delta(granite, granite) == {key: 0.0 for key in TARGET_MICROARCHITECTURES}
        assert ithemal.average_mape() == stored_mape(ithemal, "haswell")

    def test_arm_names_must_be_unique(self):
        with pytest.raises(ValueError):
            run_experiment((Arm("granite", "granite"), Arm("granite", "ithemal")), SMOKE)


class TestTables:
    def test_table5_smoke(self):
        results = run(TABLE5_ARMS[:2])
        assert set(results) == {"granite", "ithemal+"}
        bhive_test = ExperimentHarness(SMOKE).splits("bhive").test
        for result in results.values():
            assert np.isfinite(result.average_mape())
            # The Section 5.1 cross-dataset check tests the model on BHive.
            cross = evaluate_model(result.model, bhive_test)
            assert set(cross) == MICROARCHITECTURES
            assert all(np.isfinite(metric.mape) for metric in cross.values())
        table_text = format_baseline_table(results)
        assert "Ivy Bridge" in table_text and "paper MAPE" in table_text

    def test_table6_smoke(self):
        results = run(TABLE6_ARMS)
        assert all(result.arm.dataset == "bhive" for result in results.values())
        assert set(results) == {"granite", "ithemal+"}
        table_text = format_baseline_table(results)
        assert table_text.startswith("Dataset: bhive") and "granite" in table_text

    def test_table7_smoke(self):
        results = run(TABLE7_ARMS[:2])
        assert set(results) == {"granite-mp1", "granite-mp2"}
        assert all(np.isfinite(result.average_mape()) for result in results.values())
        assert "iterations" in format_table7(results)

    def test_table8_smoke(self):
        results = run([arm for arm in TABLE8_ARMS if arm.model == "granite"])
        assert set(results) == {"granite"} | {f"granite-{key}" for key in MICROARCHITECTURES}
        assert set(results["granite"].arm.tasks) == MICROARCHITECTURES
        single, multi = multitask_mape(results, "granite")
        assert np.isfinite(single - multi)
        assert "single" in format_table8(results)

    def test_table9_smoke(self):
        results = run([arm for arm in TABLE9_ARMS if arm.loss in ("mape", "mse")])
        columns = {result.arm.loss: loss_columns(result) for result in results.values()}
        assert set(columns) == {"mape", "mse"}
        for loss_name in ("mape", "mse"):
            for microarchitecture in MICROARCHITECTURES:
                row = columns[loss_name][microarchitecture]
                assert set(row) == {"mape", "mse", "relative_mse", "huber", "relative_huber"}
                assert all(np.isfinite(value) for value in row.values())
        assert all(np.isfinite(result.average_mape()) for result in results.values())
        assert "train loss" in format_table9(results)


class TestFigures:
    def test_figure3_smoke(self):
        results = run(FIGURE3_ARMS[:1])
        assert "granite" in results
        histogram = heatmap(results["granite"], "haswell")
        assert histogram.ndim == 2
        assert 0.0 <= diagonal_mass(results["granite"], "haswell") <= 1.0
        ascii_plot = render_heatmap_ascii(histogram)
        assert len(ascii_plot.splitlines()) > 5
        assert ascii_plot in format_heatmaps(results)

    def test_figure4_smoke(self):
        results = run(FIGURE3_ARMS[:1])
        counts, edges = relative_error_histogram(*results["granite"].predicted_and_actual("skylake"))
        assert counts.sum() > 0
        assert 0.0 <= underestimation(results["granite"], "skylake") <= 1.0
        assert "underestimated fraction" in format_underestimation(results)

    def test_figure5_smoke(self):
        results = run(FIGURE5_ARMS)
        assert results["granite"].arm.dataset.startswith("bhive")
        assert set(results) == {"granite"}

    def test_render_heatmap_requires_2d(self):
        with pytest.raises(ValueError):
            render_heatmap_ascii(np.zeros(5))


class TestAblations:
    def test_decoder_ablation_smoke(self):
        results = run(DECODER_ARMS)
        improvement = mape_delta(results["ithemal"], results["ithemal+"])
        assert set(improvement) == MICROARCHITECTURES
        assert np.isfinite(np.mean(list(improvement.values())))
        assert "dot-product" in format_decoder_ablation(results)

    def test_layernorm_ablation_smoke(self):
        results = run(LAYERNORM_ARMS)
        assert set(results["granite"].arm.tasks) == MICROARCHITECTURES
        assert isinstance(results["granite-no-layernorm"].history.diverged(), bool)
        assert "with LN" in format_layernorm_ablation(results)

    def test_edge_ablation_smoke(self):
        results = run(EDGE_ARMS)
        assert set(results["granite"].arm.tasks) == MICROARCHITECTURES
        benefit = results["granite-structural-only"].average_mape() - results["granite"].average_mape()
        assert np.isfinite(benefit)
        assert "structural only" in format_edge_ablation(results)

    def test_readout_ablation_smoke(self):
        results = run(READOUT_ARMS)
        per_instruction, global_readout = results["granite"], results["granite-global-readout"]
        assert set(per_instruction.arm.tasks) == MICROARCHITECTURES
        assert np.isfinite(global_readout.average_mape() - per_instruction.average_mape())
        for key in MICROARCHITECTURES:
            assert 0.0 <= underestimation(global_readout, key) <= 1.0
        assert "global readout" in format_readout_ablation(results)


class TestTiming:
    def test_measure_model_timing(self):
        dataset = build_bhive_like_dataset(30, seed=1)
        model = create_model("granite", small=True, seed=0)
        # Enough samples for the median to shrug off a stray GC pause or
        # scheduler blip (each batch is tens of milliseconds at most).
        timing = measure_model_timing(
            model, dataset, batch_size=10, num_training_batches=3, num_inference_batches=5
        )
        assert timing.training_seconds_per_batch > 0
        assert timing.inference_seconds_per_batch > 0
        assert timing.inference_seconds_per_batch < timing.training_seconds_per_batch
        assert timing.training_seconds_per_task == pytest.approx(
            timing.training_seconds_per_batch / 3
        )

    def test_table10_smoke(self):
        timings = table10_timings(SMOKE, batch_size=10, num_blocks=30)
        assert set(timings) == {
            "granite_single", "granite_multi", "ithemal+_single", "ithemal+_multi",
        }
        assert "train s/batch" in format_table10(timings)
