"""Same-seed training runs reproduce the checked-in loss trajectories.

The golden (``golden/training_losses.json``) pins the training tape — the
fused forwards, their hand-written backwards and the flat-slab Adam update —
for every model family.  Backwards may reorder float summations across BLAS
builds, so the trajectories are compared to a relative tolerance rather
than bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import harness

#: Per-step relative loss tolerance (a few ulps of drift per step, compounded).
LOSS_RTOL = 1e-9


@pytest.fixture(scope="module")
def train_split():
    return harness.training_split()


@pytest.fixture(scope="module")
def golden():
    return harness.load_golden_training_losses()


@pytest.mark.parametrize("name", harness.TRAINING_MODEL_NAMES)
def test_loss_trajectory_matches_golden(name, train_split, golden):
    losses = harness.training_losses(name, train_split)
    assert losses.shape == (harness.TRAINING_STEPS,)
    np.testing.assert_allclose(losses, golden[name], rtol=LOSS_RTOL)
