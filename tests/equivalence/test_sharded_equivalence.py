"""Sharded inference at paper scale equals one batch up to rounding.

On the fast path a large micro-batch is split into contiguous shards whose
forwards run on several cores (``repro.models.base``).  A block's
prediction depends only on its own graph or sequence, so a shard boundary
may change the rounding of a GEMM but nothing else.  These tests run the
Table 4 models on a batch large enough to shard, with two inference cores
so the host's CPUs and BLAS threads cannot turn them into one-shard
comparisons, and check:

* float64 GRANITE and Ithemal+ agree with a forced single shard to 1e-12;
* sharded float32 GRANITE passes the float32 equivalence budget (5e-3)
  against float64;
* repeated sharded predicts are bitwise identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import BlockGenerator
from repro.models import base, create_model
from repro.testing.equivalence import assert_prediction_equivalent

#: Paper-scale blocks: ~8 instructions each, so ~4x MIN_SHARD_WORK at width
#: 256 and two shards on two CPUs.
NUM_BLOCKS = 32

SHARDED_REL_TOL = 1e-12

#: The float32 equivalence budget of the program's float32 inference path.
FLOAT32_REL_TOL = 5e-3


@pytest.fixture(scope="module")
def blocks():
    return BlockGenerator(seed=31).generate_blocks(NUM_BLOCKS)


@pytest.fixture()
def two_cores(monkeypatch):
    """Two inference cores, and a record of the shard counts predicts used."""
    monkeypatch.setattr(base, "inference_cores", lambda: 2)
    counts = []
    shard_bounds = base._shard_bounds

    def recording(blocks, shards):
        bounds = shard_bounds(blocks, shards)
        counts.append(len(bounds))
        return bounds

    monkeypatch.setattr(base, "_shard_bounds", recording)
    return counts


def _predict(model, blocks):
    with model.caches_disabled():
        return model.predict(blocks)


def _max_rel_diff(actual, desired) -> float:
    return max(
        float(np.max(np.abs(actual[task] - desired[task]) / np.abs(desired[task])))
        for task in desired
    )


@pytest.mark.parametrize("name", ["granite", "ithemal+"])
def test_float64_sharded_matches_a_single_shard(name, blocks, two_cores, monkeypatch):
    model = create_model(name, small=False, seed=5, inference_dtype="float64")
    sharded = _predict(model, blocks)
    assert two_cores == [2]
    monkeypatch.setattr(base, "_shard_count", lambda work: 1)
    single = _predict(model, blocks)
    assert two_cores == [2, 1]
    assert _max_rel_diff(sharded, single) <= SHARDED_REL_TOL


def test_float32_sharded_granite_is_equivalent_to_float64(blocks, two_cores):
    model64 = create_model("granite", small=False, seed=5, inference_dtype="float64")
    model32 = create_model("granite", small=False, seed=5, inference_dtype="float32")
    with model64.caches_disabled(), model32.caches_disabled():
        assert_prediction_equivalent(model64, model32, blocks, rel_tol=FLOAT32_REL_TOL)
    assert two_cores == [2, 2]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_repeated_sharded_predicts_are_bitwise_identical(blocks, two_cores, dtype):
    model = create_model("granite", small=False, seed=5, inference_dtype=dtype)
    first = _predict(model, blocks)
    second = _predict(model, blocks)
    assert two_cores == [2, 2]
    for task in model.tasks:
        np.testing.assert_array_equal(first[task], second[task])
