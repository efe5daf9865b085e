"""Tests for the experiment harness (repro.eval.harness) and paper references."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.datasets import TARGET_MICROARCHITECTURES
from repro.eval import paper_reference as paper
from repro.eval.harness import Arm, ExperimentHarness, ExperimentScale
from repro.graph.builder import GraphBuilderConfig
from repro.models import GraniteConfig, GraniteModel, IthemalConfig, IthemalModel, create_model

STRUCTURAL = GraphBuilderConfig(
    include_data_edges=False, include_address_edges=False, include_implicit_operands=False
)


class TestExperimentScale:
    def test_quick_and_smoke_presets(self):
        quick = ExperimentScale.quick()
        smoke = ExperimentScale.smoke()
        assert smoke.ithemal_dataset_size < quick.ithemal_dataset_size
        assert smoke.num_training_steps < quick.num_training_steps
        assert quick.small_models and smoke.small_models

    def test_full_preset_uses_paper_models(self):
        full = ExperimentScale.full()
        assert not full.small_models
        assert full.batch_size == 100


class TestExperimentHarness:
    def test_datasets_are_cached(self):
        harness = ExperimentHarness(ExperimentScale.smoke())
        first = harness.splits("ithemal")
        second = harness.splits("ithemal")
        assert first is second

    def test_bhive_dataset_is_smaller(self):
        harness = ExperimentHarness(ExperimentScale.smoke())

        def total(splits):
            return len(splits.train) + len(splits.validation) + len(splits.test)

        assert total(harness.splits("bhive")) < total(harness.splits("ithemal"))

    def test_build_model_names(self):
        harness = ExperimentHarness(ExperimentScale.smoke())
        for name in ("granite", "ithemal", "ithemal+"):
            model = harness.build_model(Arm(name, name))
            assert model.tasks == ("ivy_bridge", "haswell", "skylake")
        with pytest.raises(ValueError):
            Arm("bert", "bert")
        with pytest.raises(ValueError):
            Arm("granite", "granite", dataset="spec")
        with pytest.raises(ValueError):
            Arm("ithemal", "ithemal", graph_config=GraphBuilderConfig())

    @pytest.mark.parametrize("small_models", [True, False])
    def test_arms_build_the_models_of_the_paper_configs(self, small_models):
        """An arm's model has the weights of the model its experiment has
        always trained: the scale's config with the arm's overrides, and the
        direct ``GraniteModel`` constructions of the ablations."""
        scale = replace(ExperimentScale.smoke(seed=3), small_models=small_models)
        harness = ExperimentHarness(scale)

        def granite(tasks=TARGET_MICROARCHITECTURES):
            if small_models:
                return GraniteConfig.small(tasks, seed=3)
            return GraniteConfig.paper_defaults(tasks)

        def ithemal(tasks, plus):
            if small_models:
                return IthemalConfig.small(tasks, plus=plus, seed=3)
            return IthemalConfig.paper_defaults(tasks, plus=plus)

        cases = []
        for tasks in (TARGET_MICROARCHITECTURES, ("haswell",)):
            cases.append((Arm("granite", "granite", tasks=tasks), GraniteModel(granite(tasks))))
            for name in ("ithemal", "ithemal+"):
                expected = IthemalModel(ithemal(tasks, plus=name == "ithemal+"))
                cases.append((Arm(name, name, tasks=tasks), expected))
        cases += [
            (
                Arm("mp2", "granite", model_overrides={"num_message_passing_iterations": 2}),
                GraniteModel(replace(granite(), num_message_passing_iterations=2)),
            ),
            (
                Arm("no-ln", "granite", model_overrides={"use_layer_norm": False}),
                GraniteModel(replace(granite(), use_layer_norm=False)),
            ),
            (
                Arm("global", "granite", model_overrides={"readout": "global"}),
                GraniteModel(replace(granite(), readout="global")),
            ),
            (
                Arm("structural", "granite", graph_config=STRUCTURAL),
                GraniteModel(granite(), graph_config=STRUCTURAL),
            ),
        ]
        for arm, expected in cases:
            built = harness.build_model(arm)
            assert built.config == expected.config, arm.name
            if arm.model == "granite":
                assert built.graph_builder.config == expected.graph_builder.config, arm.name
            state, expected_state = built.state_dict(), expected.state_dict()
            assert state.keys() == expected_state.keys(), arm.name
            for key, value in expected_state.items():
                np.testing.assert_array_equal(state[key], value, err_msg=f"{arm.name}: {key}")

    def test_create_model_builds_graphs_for_granite_only(self):
        with pytest.raises(ValueError):
            create_model("ithemal+", graph_config=STRUCTURAL)
        model = create_model("granite", graph_config=STRUCTURAL, use_layer_norm=False)
        assert model.graph_builder.config == STRUCTURAL
        assert not model.config.use_layer_norm

    def test_training_config_reflects_scale(self):
        scale = ExperimentScale.smoke()
        harness = ExperimentHarness(scale)
        config = harness.training_config()
        assert config.num_steps == scale.num_training_steps
        assert config.batch_size == scale.batch_size
        overridden = harness.training_config(loss="huber", num_steps=3)
        assert overridden.loss == "huber" and overridden.num_steps == 3

    def test_train_smoke(self):
        harness = ExperimentHarness(ExperimentScale.smoke())
        result = harness.train(Arm("granite", "granite"))
        assert result.arm.name == "granite"
        assert set(result.predictions) == {"ivy_bridge", "haswell", "skylake"}
        assert np.isfinite(result.average_mape())
        assert len(result.history.steps) == harness.scale.num_training_steps


class TestPaperReferenceValues:
    """Sanity checks that the transcribed constants match the paper's claims."""

    def test_table5_granite_beats_ithemal_everywhere(self):
        for microarchitecture in paper.MICROARCHITECTURE_DISPLAY_NAMES:
            assert (
                paper.TABLE5_MAPE["granite"][microarchitecture]
                < paper.TABLE5_MAPE["ithemal+"][microarchitecture]
                < paper.TABLE5_MAPE["ithemal"][microarchitecture]
            )

    def test_headline_average_error(self):
        average = np.mean(list(paper.TABLE5_MAPE["granite"].values()))
        assert average == pytest.approx(paper.GRANITE_AVERAGE_TEST_ERROR, abs=0.002)

    def test_table7_best_at_eight_iterations(self):
        for microarchitecture, sweep in paper.TABLE7_MESSAGE_PASSING_MAPE.items():
            assert min(sweep, key=sweep.get) == 8

    def test_table9_mape_is_best_or_near_best_loss(self):
        for microarchitecture, row in paper.TABLE9_LOSS_MAPE.items():
            best = min(row, key=row.get)
            assert best in ("mape", "relative_mse")
            assert row["mape"] <= row["mse"]

    def test_table10_granite_faster_on_gpu(self):
        assert (
            paper.TABLE10_RUNTIME_SECONDS[("granite_single", "gpu_training")]
            < paper.TABLE10_RUNTIME_SECONDS[("ithemal_single", "gpu_training")]
        )
        assert (
            paper.TABLE10_RUNTIME_SECONDS[("granite_multi", "gpu_inference")]
            < paper.TABLE10_RUNTIME_SECONDS[("ithemal+_multi", "gpu_inference")]
        )

    def test_table8_multitask_helps_granite_on_average(self):
        singles = [values[0] for values in paper.TABLE8_MULTI_TASK_MAPE["granite"].values()]
        multis = [values[1] for values in paper.TABLE8_MULTI_TASK_MAPE["granite"].values()]
        assert np.mean(multis) < np.mean(singles)
