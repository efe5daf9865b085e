"""Dtype behaviour of the no-grad inference fast path.

Covers the mixed-precision substrate the float32 serving mode stands on:
the ``compute_dtype`` context (per thread, like the grad and fast-path
modes), dtype preservation through every fast-path op, the version-keyed
``Parameter.data_as`` cast cache, and the dtype-aware LayerNorm epsilon (regression: float32 normalisation of a constant-feature
block must not blow up or go non-finite).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.nn.layers import Dense, LayerNorm
from repro.nn.lstm import LSTM
from repro.nn.module import Parameter
from repro.nn.tensor import (
    SUPPORTED_DTYPES,
    active_dtype,
    compute_dtype,
    concatenate,
    fast_path_active,
    is_grad_enabled,
    no_grad,
    raw,
    relu,
    resolve_dtype,
    segment_mean,
    segment_sum,
    sigmoid,
    stack,
    tanh,
    use_fast_path,
)


def _fast_path_enabled() -> bool:
    """The fast-path flag (only observable while gradients are off)."""
    with no_grad():
        return fast_path_active()


#: Execution-mode field -> (non-default context, reader, default value).
_MODES = {
    "grad": (no_grad, is_grad_enabled, True),
    "fast_path": (lambda: use_fast_path(False), _fast_path_enabled, True),
    "dtype": (lambda: compute_dtype("float32"), active_dtype, np.float64),
}


class TestComputeDtypeContext:
    def test_default_is_float64(self):
        assert active_dtype() == np.float64

    def test_context_switches_and_restores(self):
        with compute_dtype("float32"):
            assert active_dtype() == np.float32
            with compute_dtype("float64"):
                assert active_dtype() == np.float64
            assert active_dtype() == np.float32
        assert active_dtype() == np.float64

    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_restores_on_exception(self, mode):
        enter_context, read, default = _MODES[mode]
        with pytest.raises(RuntimeError):
            with enter_context():
                raise RuntimeError("boom")
        assert read() == default

    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_state_is_per_thread(self, mode):
        """A mode context on one thread must not leak into another.

        The serving stack predicts from several threads at once (async
        dispatcher + client threads), possibly in different precisions, and
        a trainer may share the process.  Each thread sees only its own
        ``no_grad`` / ``use_fast_path`` / ``compute_dtype`` contexts, also
        when enter and exit calls of two threads interleave.
        """
        enter_context, read, default = _MODES[mode]

        # One thread holds the context while this thread reads its default.
        entered = threading.Event()
        release = threading.Event()
        observed = {}

        def hold():
            with enter_context():
                observed["worker"] = read()
                entered.set()
                release.wait(timeout=10.0)

        worker = threading.Thread(target=hold)
        worker.start()
        try:
            assert entered.wait(timeout=10.0)
            assert read() == default
            assert observed["worker"] != default
        finally:
            release.set()
            worker.join(timeout=10.0)
        assert not worker.is_alive()

        # A enters, B enters, A exits, B exits: with a shared global, B's
        # exit would restore the value A's context had set.
        steps = {name: threading.Event() for name in ("a_in", "b_in", "a_out")}

        def thread_a():
            with enter_context():
                steps["a_in"].set()
                steps["b_in"].wait(timeout=10.0)
            observed["a_after"] = read()
            steps["a_out"].set()

        def thread_b():
            steps["a_in"].wait(timeout=10.0)
            with enter_context():
                steps["b_in"].set()
                steps["a_out"].wait(timeout=10.0)
                observed["b_inside"] = read()
            observed["b_after"] = read()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        assert observed["a_after"] == default
        assert observed["b_inside"] != default
        assert observed["b_after"] == default
        assert read() == default

    def test_resolve_dtype_accepts_names_and_types(self):
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype(np.float64) == np.float64
        with pytest.raises(ValueError, match="unsupported compute dtype"):
            resolve_dtype("float16")
        assert SUPPORTED_DTYPES == ("float64", "float32")

    def test_raw_casts_to_active_dtype(self):
        values = np.arange(4, dtype=np.float64)
        assert raw(values) is values  # float64 default: identity, no copy
        with compute_dtype("float32"):
            cast = raw(values)
            assert cast.dtype == np.float32
            assert raw(cast) is cast  # already the active dtype: no copy


class TestFastPathDtypePreservation:
    """Every functional op keeps float32 float32 (no silent upcasts)."""

    def test_elementwise_ops(self):
        x = np.linspace(-2, 2, 8, dtype=np.float32)
        with compute_dtype("float32"):
            assert relu(x).dtype == np.float32
            assert tanh(x).dtype == np.float32
            assert sigmoid(x).dtype == np.float32
        # Outside the context the ops compute in the active (float64) dtype:
        # the context, not the operand, owns the precision decision.
        assert relu(x).dtype == np.float64

    def test_stack_and_concatenate(self):
        x = np.ones((2, 3), dtype=np.float32)
        with compute_dtype("float32"):
            assert stack([x, x]).dtype == np.float32
            assert concatenate([x, x], axis=-1).dtype == np.float32

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_segment_ops_accumulate_float64_return_float32(self, ndim):
        shape = (6,) + (3,) * (ndim - 1)
        values = np.random.default_rng(0).normal(size=shape).astype(np.float32)
        ids = np.array([0, 0, 1, 1, 2, 2])
        with compute_dtype("float32"):
            summed = segment_sum(values, ids, 3)
            averaged = segment_mean(values, ids, 3)
        assert summed.dtype == np.float32
        assert averaged.dtype == np.float32
        np.testing.assert_allclose(
            summed.sum(axis=0), values.sum(axis=0, dtype=np.float64), rtol=1e-6
        )

    def test_dense_and_lstm_forward_stay_float32(self):
        rng = np.random.default_rng(3)
        dense = Dense(4, 5, rng, activation="relu")
        lstm = LSTM(4, 6, rng)
        inputs = rng.normal(size=(2, 3, 4))
        with no_grad(), compute_dtype("float32"):
            assert dense(inputs[:, 0, :]).dtype == np.float32
            outputs, final_hidden = lstm(inputs, np.array([3, 2]))
            assert outputs.dtype == np.float32
            assert final_hidden.dtype == np.float32

    def test_tape_tensors_remain_float64(self):
        """Training precision is not configurable: the tape stays float64."""
        from repro.nn.tensor import Tensor

        with compute_dtype("float32"):
            tensor = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
            assert tensor.data.dtype == np.float64
            assert (tensor @ tensor).data.dtype == np.float64


class TestParameterCastCache:
    def test_float64_is_master_data(self):
        parameter = Parameter(np.ones((3,)))
        assert parameter.data_as(np.float64) is parameter.data

    def test_cast_is_cached_until_version_bump(self):
        parameter = Parameter(np.ones((3,)))
        first = parameter.data_as(np.float32)
        assert first.dtype == np.float32
        assert parameter.data_as(np.float32) is first  # cached
        parameter.data[...] = 2.0
        parameter.bump_version()
        second = parameter.data_as(np.float32)
        assert second is not first
        np.testing.assert_array_equal(second, np.full((3,), 2.0, dtype=np.float32))

    def test_load_state_dict_refreshes_casts(self):
        layer = Dense(2, 2, np.random.default_rng(0))
        stale = layer.weight.data_as(np.float32)
        state = {name: value * 3.0 for name, value in layer.state_dict().items()}
        layer.load_state_dict(state)
        fresh = layer.weight.data_as(np.float32)
        assert fresh is not stale
        np.testing.assert_allclose(fresh, layer.weight.data.astype(np.float32))


class TestLayerNormDtype:
    def test_epsilon_floor_applies_to_float32_only(self):
        layer = LayerNorm(8, epsilon=1e-12)
        assert layer.epsilon_for(np.float64) == 1e-12
        assert layer.epsilon_for(np.float32) == LayerNorm.FLOAT32_EPSILON_FLOOR
        generous = LayerNorm(8, epsilon=1e-3)
        assert generous.epsilon_for(np.float32) == 1e-3  # floor, not override

    def test_constant_feature_block_does_not_blow_up_in_float32(self):
        """Regression: near-constant features + tiny epsilon used to be able
        to drive the float32 rsqrt to non-finite / huge values.  The float64
        statistics accumulation plus the epsilon floor keep the output
        bounded and finite."""
        layer = LayerNorm(16, epsilon=1e-12)
        constant = np.full((4, 16), 3.14159)
        near_constant = constant + np.random.default_rng(1).normal(
            scale=1e-6, size=constant.shape
        )
        with no_grad(), compute_dtype("float32"):
            for inputs in (constant, near_constant):
                outputs = layer(inputs)
                assert outputs.dtype == np.float32
                assert np.all(np.isfinite(outputs))
                # Normalised output of LayerNorm is bounded by sqrt(size)
                # whatever the variance; give rounding a little headroom.
                assert np.abs(outputs).max() <= np.sqrt(layer.size) + 1.0

    def test_float32_statistics_match_float64_on_regular_inputs(self):
        layer = LayerNorm(32)
        inputs = np.random.default_rng(2).normal(5.0, 3.0, size=(6, 32))
        with no_grad():
            expected = layer(inputs)
            with compute_dtype("float32"):
                actual = layer(inputs)
        np.testing.assert_allclose(actual, expected, atol=1e-5)
        # The float32 output is exactly mean-free to float32 resolution
        # because the statistics are accumulated in float64.
        assert np.abs(np.asarray(actual, dtype=np.float64).mean(axis=-1)).max() < 1e-6
