"""Per-module prediction-cache generations (repro.models.base).

The prediction cache used to be keyed to a single *global* parameter
generation, so training any model in the process invalidated every other
model's cache.  These tests pin the per-module behaviour: a model's cache
survives unrelated training and still invalidates on its own updates.
"""

import numpy as np
import pytest

from repro.data.synthetic import BlockGenerator, GeneratorConfig
from repro.models import create_model
from repro.nn.module import bump_parameter_version
from repro.nn.optim import Adam


@pytest.fixture(scope="module")
def blocks():
    return BlockGenerator(GeneratorConfig(seed=11)).generate_blocks(8)


def _train_one_step(model, blocks):
    """One tracked weight update: backprop-free, via the optimizer."""
    optimizer = Adam(model.parameters(), learning_rate=1e-3)
    for parameter in model.parameters():
        parameter.grad = np.ones_like(parameter.data)
    optimizer.step()


class TestPerModuleGeneration:
    def test_training_one_model_keeps_the_others_cache(self, blocks):
        served = create_model("granite", small=True, seed=0)
        trained = create_model("ithemal+", small=True, seed=1)
        before = served.predict(blocks)
        assert served.prediction_cache_stats["entries"] == len(blocks)

        _train_one_step(trained, blocks)

        # The served model's cache must survive the other model's training:
        # every block is a hit and the values are identical.
        hits_before = served.prediction_cache_stats["hits"]
        after = served.predict(blocks)
        assert served.prediction_cache_stats["entries"] == len(blocks)
        assert served.prediction_cache_stats["hits"] == hits_before + len(blocks)
        for task in served.tasks:
            np.testing.assert_array_equal(after[task], before[task])

    def test_own_training_still_invalidates(self, blocks):
        model = create_model("granite", small=True, seed=3)
        stale = model.predict(blocks)
        assert model.prediction_cache_stats["entries"] == len(blocks)

        _train_one_step(model, blocks)

        fresh = model.predict(blocks)
        assert model.prediction_cache_stats["entries"] == len(blocks)
        # The update moved the weights, so cached values must not be served.
        changed = any(
            not np.allclose(fresh[task], stale[task]) for task in model.tasks
        )
        assert changed

    def test_load_state_dict_invalidates_own_cache_only(self, blocks):
        served = create_model("granite", small=True, seed=0)
        reloaded = create_model("granite", small=True, seed=4)
        donor = create_model("granite", small=True, seed=5)
        served.predict(blocks)
        stale = reloaded.predict(blocks)

        reloaded.load_state_dict(donor.state_dict())

        fresh = reloaded.predict(blocks)
        changed = any(
            not np.allclose(fresh[task], stale[task]) for task in reloaded.tasks
        )
        assert changed
        # The bystander's cache is untouched: all hits.
        hits_before = served.prediction_cache_stats["hits"]
        served.predict(blocks)
        assert served.prediction_cache_stats["hits"] == hits_before + len(blocks)

    def test_global_bump_alone_does_not_drop_caches(self, blocks):
        """A bare global version bump (no weights moved) keeps every cache."""
        model = create_model("granite", small=True, seed=6)
        model.predict(blocks)
        bump_parameter_version()
        hits_before = model.prediction_cache_stats["hits"]
        model.predict(blocks)
        assert model.prediction_cache_stats["hits"] == hits_before + len(blocks)

    def test_parameter_generation_is_strictly_monotonic(self, blocks):
        model = create_model("ithemal+", small=True, seed=7)
        generation = model.parameter_generation()
        _train_one_step(model, blocks)
        stepped = model.parameter_generation()
        assert stepped > generation
        model.load_state_dict(model.state_dict())
        assert model.parameter_generation() > stepped


class TestDtypeCacheIsolation:
    """The prediction cache key includes the inference dtype.

    A float64 training model and a float32 serving clone must neither
    cross-hit (serving reduced-precision values as full-precision ones or
    vice versa) nor cross-invalidate each other's prediction caches.
    """

    def test_float32_clone_never_hits_float64_entries(self, blocks):
        model = create_model("granite", small=True, seed=8, inference_dtype="float64")
        first = model.predict(blocks)
        assert model.prediction_cache_stats["entries"] == len(blocks)

        # Same model object flipped to float32: the same block texts must
        # miss (different key), recompute, and coexist with the float64
        # entries rather than evict them.
        model.inference_dtype = "float32"
        flipped = model.predict(blocks)
        stats = model.prediction_cache_stats
        assert stats["entries"] == 2 * len(blocks)
        changed = any(
            not np.array_equal(flipped[task], first[task]) for task in model.tasks
        )
        assert changed, "float32 predictions served bit-identical float64 values"

        # Flipping back serves the original float64 entries from cache.
        model.inference_dtype = "float64"
        hits_before = model.prediction_cache_stats["hits"]
        again = model.predict(blocks)
        assert model.prediction_cache_stats["hits"] == hits_before + len(blocks)
        for task in model.tasks:
            np.testing.assert_array_equal(again[task], first[task])

    def test_training_float64_model_keeps_float32_clones_cache(self, blocks):
        trained = create_model("granite", small=True, seed=8, inference_dtype="float64")
        served = create_model("granite", small=True, seed=8, inference_dtype="float32")
        served.load_state_dict(trained.state_dict())
        before = served.predict(blocks)
        assert served.prediction_cache_stats["entries"] == len(blocks)

        _train_one_step(trained, blocks)

        # The float32 clone's cache survives the float64 model's training
        # (separate modules, separate generations) and serves identical
        # values from cache.
        hits_before = served.prediction_cache_stats["hits"]
        after = served.predict(blocks)
        assert served.prediction_cache_stats["hits"] == hits_before + len(blocks)
        for task in served.tasks:
            np.testing.assert_array_equal(after[task], before[task])

        # And the trained model's own (float64) cache was invalidated: its
        # next predictions are fresh, not the clone's float32 values.
        fresh = trained.predict(blocks)
        changed = any(
            not np.allclose(fresh[task], before[task]) for task in trained.tasks
        )
        assert changed


class TestCacheStatsHook:
    def test_uniform_summary_across_model_families(self, blocks):
        for name in ("granite", "ithemal+"):
            model = create_model(name, small=True, seed=0)
            for _ in range(2):
                model.predict(blocks)
            stats = model.cache_stats()
            assert stats["encode_misses"] > 0
            assert stats["prediction_hits"] == len(blocks)
            assert stats["prediction_misses"] == len(blocks)
            assert stats["prediction_hit_rate"] == pytest.approx(0.5)
            assert stats["prediction_entries"] == len(blocks)
            assert 0.0 <= stats["encode_hit_rate"] <= 1.0
